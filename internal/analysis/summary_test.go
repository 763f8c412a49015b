package analysis

import (
	"strings"
	"testing"
)

// summaryProg loads the summary fixture and builds its Program once per
// test; the helpers fail the test rather than return nil so each
// assertion reads as one line.
func summaryProg(t *testing.T) *Program {
	t.Helper()
	return NewProgram([]*Package{loadFixture(t, "summary")})
}

func mustSummary(t *testing.T, prog *Program, name string) *Summary {
	t.Helper()
	fn := prog.FuncByName(name)
	if fn == nil {
		t.Fatalf("FuncByName(%q) found nothing", name)
	}
	sum := prog.SummaryOf(fn)
	if sum == nil {
		t.Fatalf("no summary computed for %s", name)
	}
	return sum
}

func paramFact(t *testing.T, prog *Program, name string, idx int) ParamFacts {
	t.Helper()
	sum := mustSummary(t, prog, name)
	if idx >= len(sum.Params) {
		t.Fatalf("%s has %d param slots, want index %d", name, len(sum.Params), idx)
	}
	return sum.Params[idx]
}

// TestSummaryMutualRecursion drives the SCC fixpoint: pongLog only
// reaches the fmt sink through pingLog, so the fact exists only at the
// fixpoint.
func TestSummaryMutualRecursion(t *testing.T) {
	prog := summaryProg(t)

	for _, name := range []string{"pingLog", "pongLog"} {
		if paramFact(t, prog, name, 0)&ParamLogged == 0 {
			t.Errorf("%s: param b should be marked logged through the recursion", name)
		}
		if paramFact(t, prog, name, 1)&ParamLogged != 0 {
			t.Errorf("%s: the loop counter n must not be marked logged", name)
		}
	}
	if !mustSummary(t, prog, "recDraw").ReturnsSecret {
		t.Error("recDraw should return secret material via its recursive base case")
	}
}

// TestSummaryInterfaceTaint checks taint propagation through dynamic
// dispatch: wrapVisitor.visit returns its argument only by calling
// through the visitor interface.
func TestSummaryInterfaceTaint(t *testing.T) {
	prog := summaryProg(t)

	if !mustSummary(t, prog, "leafVisitor.visit").TaintsReturn {
		t.Error("leafVisitor.visit returns its parameter and must taint its return")
	}
	if !mustSummary(t, prog, "wrapVisitor.visit").TaintsReturn {
		t.Error("wrapVisitor.visit should inherit TaintsReturn through the interface call")
	}
}

// TestSummaryWallClockReach checks both directions of the reach rules:
// a static chain carries the wall-clock fact with its call chain, while
// a dynamic dispatch with a clock-free implementor must not (reach facts
// use must-semantics across interface calls).
func TestSummaryWallClockReach(t *testing.T) {
	prog := summaryProg(t)

	sum := mustSummary(t, prog, "stampTwice")
	if sum.WallClock == nil {
		t.Fatal("stampTwice reaches time.Now through now() and should carry WallClock")
	}
	if chain := sum.WallClock.chain(); !strings.Contains(chain, "time.Now") {
		t.Errorf("stampTwice WallClock chain %q should name time.Now", chain)
	}

	if mustSummary(t, prog, "wallTicker.tick").WallClock == nil {
		t.Error("wallTicker.tick calls time.Now directly and should carry WallClock")
	}
	if mustSummary(t, prog, "simTicker.tick").WallClock != nil {
		t.Error("simTicker.tick never touches the clock and must stay clock-free")
	}
	if got := mustSummary(t, prog, "viaTicker").WallClock; got != nil {
		t.Errorf("viaTicker dispatches to a clock-free implementor and must stay clock-free (must-semantics), got chain %q", got.chain())
	}
}
