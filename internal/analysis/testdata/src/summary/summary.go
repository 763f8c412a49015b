// Package keymat here is a fixture for the summary engine itself rather
// than for any single analyzer: summary_test.go loads it, builds a
// Program and asserts the computed facts directly. The cases concentrate
// on what the bottom-up SCC walk has to get right — mutually recursive
// helpers whose facts only stabilize at the fixpoint, taint that flows
// through an interface method, and the must-semantics rule for reach
// facts across dynamic dispatch.
package keymat

import (
	"fmt"
	"time"
)

// Draw stands in for keymat.Draw, a secret source by package and name.
func Draw(n int) []byte { return make([]byte, n) }

// --- mutual recursion: the log sink is only visible from pingLog's
// base case, but the fixpoint must mark b logged in BOTH functions. ---

func pingLog(b []byte, n int) {
	if n == 0 {
		fmt.Println(string(b))
		return
	}
	pongLog(b, n-1)
}

func pongLog(b []byte, n int) { pingLog(b, n-1) }

// --- self-recursion: the secret return surfaces at the base case. ---

func recDraw(n int) []byte {
	if n == 0 {
		return Draw(16)
	}
	return recDraw(n - 1)
}

// --- recursive taint through an interface method: wrapVisitor.visit
// reaches leafVisitor.visit (which returns its argument) only through
// dynamic dispatch, and is itself one of the dispatch candidates. ---

type visitor interface{ visit(b []byte) []byte }

type leafVisitor struct{}

func (leafVisitor) visit(b []byte) []byte { return b }

type wrapVisitor struct{ inner visitor }

func (w wrapVisitor) visit(b []byte) []byte { return w.inner.visit(b) }

// --- wall clock: a static chain propagates, a dynamic dispatch with a
// clock-free implementor must not. ---

func now() time.Time { return time.Now() }

func stampTwice() int64 { return now().UnixNano() - now().UnixNano() }

type ticker interface{ tick() int64 }

type wallTicker struct{}

func (wallTicker) tick() int64 { return time.Now().UnixNano() }

type simTicker struct{ t int64 }

func (s simTicker) tick() int64 { return s.t }

// viaTicker's callee set is {wallTicker.tick, simTicker.tick}; since the
// sim implementor never reads the wall clock, the call proves nothing
// and viaTicker must stay clock-free (must-semantics).
func viaTicker(t ticker) int64 { return t.tick() }
