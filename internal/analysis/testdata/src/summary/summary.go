// Package keymat here is a fixture for the summary engine itself rather
// than for any single analyzer: summary_test.go loads it, builds a
// Program and asserts the computed facts directly. The cases concentrate
// on what the bottom-up SCC walk has to get right — mutually recursive
// helpers whose facts only stabilize at the fixpoint, and taint that
// flows through an interface method.
package keymat

import "fmt"

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
