package analysis

import (
	"sort"
	"testing"
)

// TestHotSetMustSemantics pins the hot-set propagation rules on the
// hotset fixture: static module calls, single-implementor interface
// dispatch and every implementor of a sealed interface join the set; an
// interface with an implementor outside its own package (ambiguous
// dispatch, open set), calls behind an `if pkgVar != nil` hook guard and
// unreachable functions do not.
func TestHotSetMustSemantics(t *testing.T) {
	prog := NewProgram(loadFixtureMulti(t, "hotset"))
	hot := prog.HotSet()

	byName := make(map[string]*HotInfo)
	for fn, hi := range hot {
		byName[hotFnName(fn)] = hi
	}
	have := make([]string, 0, len(byName))
	for n := range byName {
		have = append(have, n)
	}
	sort.Strings(have)

	for _, want := range []string{"Sim.Run", "only.Handle", "onlyReached", "direct", "seal1.Seal", "seal2.Seal", "sealReached"} {
		if byName[want] == nil {
			t.Errorf("hot set missing %s; have %v", want, have)
		}
	}
	for _, not := range []string{"impl1.Do", "Far.Do", "ImplReached", "orphan", "tracer.note", "hookReached"} {
		if hi := byName[not]; hi != nil {
			t.Errorf("%s must not be hot (ambiguous dispatch, nil-guarded hook or unreachable); via %v", not, hi.Via)
		}
	}

	// The narration chain is rooted at the declared root.
	if hi := byName["onlyReached"]; hi != nil {
		if len(hi.Via) < 2 || hi.Via[0] != "Sim.Run" || hi.Via[len(hi.Via)-1] != "onlyReached" {
			t.Errorf("onlyReached via = %v, want a chain from Sim.Run down to onlyReached", hi.Via)
		}
	}
	if hi := byName["Sim.Run"]; hi != nil {
		if len(hi.Via) != 1 || hi.Via[0] != "Sim.Run" {
			t.Errorf("root via = %v, want [Sim.Run]", hi.Via)
		}
	}

	// Memoized: a second call returns the identical map.
	if again := prog.HotSet(); len(again) != len(hot) {
		t.Errorf("HotSet not stable across calls: %d then %d entries", len(hot), len(again))
	}
}

// TestHotSetRootsResolve runs the hot set over the fixture and checks
// that only root-shaped functions seed it: the fixture's Sim.Run matches
// the declared netsim root, while same-name functions on the wrong
// receiver would not (orphan has no receiver and is not a root name).
func TestHotSetRootsResolve(t *testing.T) {
	pkg := loadFixture(t, "hotpath")
	prog := NewProgram([]*Package{pkg})
	hot := prog.HotSet()
	if len(hot) == 0 {
		t.Fatal("hotpath fixture produced an empty hot set; Sim.Run should seed it")
	}
	for fn, hi := range hot {
		if len(hi.Via) == 0 || hi.Via[0] != "Sim.Run" {
			t.Errorf("%s joined the hot set via %v; the fixture's only root is Sim.Run", hotFnName(fn), hi.Via)
		}
	}
	byName := make(map[string]bool)
	for fn := range hot {
		byName[hotFnName(fn)] = true
	}
	if byName["buildIndex"] {
		t.Error("buildIndex is unreachable from Sim.Run and must not be hot")
	}
	if !byName["Sim.validate"] {
		t.Error("Sim.validate is reached from Sim.Run through Sim.coldPaths and must be hot")
	}
}
