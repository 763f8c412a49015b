// Package netsim here is a hiplint fixture for the hot-set computation
// itself: it borrows a hot-root package name so Sim.Run seeds the set,
// then lays out three interfaces: one with a single module implementor
// (the must-dispatch edge joins the hot set), one whose two implementors
// both live here (sealed: both join), and one with a second implementor
// in the sibling ext package (ambiguous: no edge, nobody joins), plus a
// nil-guarded hook whose callees stay cold.
// TestHotSetMustSemantics asserts membership; the // want lines are what
// the analyzer reports when it runs over the set.
package netsim

type Sim struct {
	h single
	c sealed
	m Multi
}

// single has exactly one module implementor: must-dispatch resolves it.
type single interface{ Handle() }

type only struct{ n int }

func (o *only) Handle() { o.n = onlyReached(o.n) }

func onlyReached(n int) int { return n + 1 }

// sealed has two implementors, both in this package: the package chose
// every landing, so both (and what they reach) are hot.
type sealed interface{ Seal() }

type seal1 struct{}

func (seal1) Seal() { sealReached(1) }

type seal2 struct{}

func (seal2) Seal() { sealReached(2) }

func sealReached(n int) {
	for k := range sink { // want "map iteration on the hot path"
		sink[k] = n
	}
}

// Multi has one implementor here and one in ext: dispatch is ambiguous
// and the set is open, so neither implementation (nor anything below
// them) becomes hot.
type Multi interface{ Do() }

type impl1 struct{}

func (impl1) Do() { ImplReached(1) }

var sink map[string]int

func ImplReached(n int) {
	// A map range that must NOT be flagged: this function is only
	// reachable through the ambiguous Multi.Do dispatch.
	for k := range sink {
		sink[k] = n
	}
}

// hook is an optional package-level hook, nil unless something wires it
// up: Run calls it only behind `if hook != nil`, so tracer.note and what it
// reaches stay out of the hot set.
var hook *tracer

type tracer struct{}

func (*tracer) note() { hookReached() }

func hookReached() {
	// A map range that must NOT be flagged: only the guarded hook reaches it.
	for range sink {
	}
}

// Run is the root. direct() is hot through a static call; s.h.Handle()
// through the single-implementor edge; s.c.Seal() through the sealed
// interface; s.m.Do() and the guarded hook add nothing.
func (s *Sim) Run() {
	direct()
	s.h.Handle()
	s.c.Seal()
	s.m.Do()
	if hook != nil {
		hook.note()
	}
}

func direct() {
	for range sink { // want "map iteration on the hot path"
	}
}

// orphan is unreachable from any root.
func orphan() {
	for range sink {
	}
}

var _ = orphan
