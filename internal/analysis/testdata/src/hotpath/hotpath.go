// Package netsim here is a hiplint fixture: it borrows the name of a
// hot-root package (hotpath seeds its hot set by package name), so
// Sim.Run below is a declared root and everything it reaches is hot.
// Each helper holds one allocation idiom: "want" lines are hotpath's own
// findings, "budget" lines are the compiler's (TestHotPathFixtureBudget).
package netsim

import (
	"errors"
	"fmt"
)

type lock struct{ held bool }

func (l *lock) Lock()   { l.held = true }
func (l *lock) Unlock() { l.held = false }

type item struct{ n int }

type handler interface{ handle() int }

type val struct{ n int }

func (v val) handle() int { return v.n }

type pval struct{ n int }

func (p *pval) handle() int { return p.n }

// DebugLog mirrors the optional-hook pattern: package-level, nil unless
// a test wires a tracer in. Bodies guarded by its nil check are cold.
var DebugLog func(string)

// lastKept pins keep's argument, so what is passed to keep escapes.
var lastKept *item

// hook is a dynamic callee: the compiler cannot see through a func
// value, so composite arguments passed to it escape.
var hook func(*item)

type Sim struct {
	state   map[string]int
	peers   map[string]bool
	order   []int
	scratch []byte
	last    *item
	mu      lock
	ch      chan *item
}

// Run matches the netsim Sim.Run hot root by package, receiver, and name.
func (s *Sim) Run() {
	s.mapRange()
	s.deferLoop()
	s.closures(3)
	s.boxing(4)
	s.appends(s.scratch)
	s.conversions("key", s.scratch)
	s.composites()
	s.logging(7)
	_ = s.coldPaths(s.scratch)
	_ = s.spawn()
}

func (s *Sim) mapRange() int {
	total := 0
	for _, v := range s.state { // want "map iteration on the hot path"
		total += v
	}
	for _, v := range s.order { // slice iteration: deterministic and flat
		total += v
	}
	return total
}

func (s *Sim) deferLoop() {
	for i := 0; i < 3; i++ {
		s.mu.Lock()
		defer s.mu.Unlock() // budget: the wrapper closure escapes, once per iteration
	}
	s.mu.Lock()
	defer s.mu.Unlock() // a single defer outside any loop: fine
}

func (s *Sim) closures(n int) int {
	f := func() int { return n }  // want "closure capturing n allocates its environment"
	g := func() int { return 42 } // capture-free literal: a static funcval
	return f() + g()
}

func dispatch(h handler) int { return h.handle() }

func (s *Sim) boxing(n int) int {
	v := val{n: n}
	total := dispatch(v) // want "boxing val into handler allocates per call"
	p := &pval{n: n}
	total += dispatch(p) // pointer-shaped: fits the interface word directly
	return total
}

func (s *Sim) appends(src []byte) []byte {
	var grown []byte
	for _, c := range src {
		grown = append(grown, c) // want "append grows grown, a fresh unpooled buffer"
	}
	merged := append([]byte{}, src...) // want "append onto a fresh empty slice"
	_ = merged
	sized := make([]byte, 0, len(src))
	sized = append(sized, src...) // pre-sized once up front: the approved shape
	return sized
}

func (s *Sim) conversions(k string, b []byte) int {
	if s.peers[string(b)] { // map-index position: the compiler avoids the copy
		return 0
	}
	if string(b) == k { // comparison position: no copy
		return 1
	}
	switch string(b) { // switch-tag position: no copy
	case "stop":
		return 2
	}
	key := string(b) // want "string.b. conversion copies on the hot path"
	raw := []byte(k) // want "byte.s. conversion copies on the hot path"
	return len(key) + len(raw)
}

// keep retains its argument in package state, so composite arguments
// at its call sites escape.
func keep(it *item) { lastKept = it }

// bump only writes through the pointer; nothing outlives the call.
func bump(it *item) { it.n++ }

func (s *Sim) composites() {
	keep(&item{n: 1})    // budget: escapes through the call
	bump(&item{n: 2})    // callee does not retain: stays on the stack
	s.last = &item{n: 3} // budget: stored into heap state
	s.ch <- &item{n: 4}  // budget: sent on a channel
	hook(&item{n: 5})    // budget: escapes through the dynamic call
	tmp := &item{n: 6}   // stays local: no escape
	tmp.n++
}

func (s *Sim) logging(seq int) string {
	return fmt.Sprintf("event %d", seq) // want "boxing int into any allocates per call" (and budget: seq escapes)
}

func (s *Sim) coldPaths(b []byte) error {
	if len(b) == 0 {
		return errors.New("empty packet") // cold: block returns a non-nil error
	}
	if err := s.validate(b); err != nil {
		return fmt.Errorf("validate: %w", err) // cold: under an err != nil guard
	}
	if DebugLog != nil {
		DebugLog(fmt.Sprintf("accepted %d bytes", len(b))) // cold: nil-guarded debug hook
	}
	return nil
}

func (s *Sim) validate(b []byte) error {
	if len(b) > 1<<16 {
		return errors.New("oversized") // cold: error-return tail
	}
	return nil
}

// spawn returns a freshly built item: `return &T{...}` is the
// constructor idiom and is deliberately not flagged statically — the
// -budget layer prices the escape at each hot caller instead.
func (s *Sim) spawn() *item {
	return &item{n: len(s.order)}
}

// buildIndex is never reached from a hot root: the same idioms that are
// findings above draw nothing here.
func buildIndex(names []string) map[string]int {
	idx := make(map[string]int, len(names))
	for i, n := range names {
		idx[fmt.Sprintf("node-%s", n)] = i
	}
	return idx
}

var _ = buildIndex
