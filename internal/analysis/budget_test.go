package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParseDiagLine(t *testing.T) {
	cases := []struct {
		in   string
		file string
		line int
		msg  string
		ok   bool
	}{
		{"internal/netsim/net.go:42:7: v escapes to heap", "internal/netsim/net.go", 42, "v escapes to heap", true},
		{"internal/netsim/net.go:42:7: v escapes to heap:", "internal/netsim/net.go", 42, "v escapes to heap:", true},
		{"internal/netsim/net.go:42: moved to heap: w", "internal/netsim/net.go", 42, "moved to heap: w", true},
		{"internal/netsim/net.go:9:3: Found IsSliceInBounds", "internal/netsim/net.go", 9, "Found IsSliceInBounds", true},
		// Flow commentary under an escape head is indented past the
		// single separator space: not a diagnostic head.
		{"internal/netsim/net.go:42:7:   flow: {heap} = &v:", "", 0, "", false},
		// Package banners and non-diagnostic chatter.
		{"# hipcloud/internal/netsim", "", 0, "", false},
		{"", "", 0, "", false},
		{"internal/netsim/net.go:notaline: v escapes to heap", "", 0, "", false},
	}
	for _, c := range cases {
		file, line, msg, ok := parseDiagLine(c.in)
		if ok != c.ok || file != c.file || line != c.line || msg != c.msg {
			t.Errorf("parseDiagLine(%q) = (%q, %d, %q, %v), want (%q, %d, %q, %v)",
				c.in, file, line, msg, ok, c.file, c.line, c.msg, c.ok)
		}
	}
}

// TestFoldDiagnostics feeds synthetic -m=2 output through the fold and
// checks the dedup rule: -m=2 prints each "escapes to heap" twice (a
// head ending in ':' plus the plain -m line) and a moved variable as a
// head plus "moved to heap", so one escaped value counts exactly once —
// and a head with neither twin (a compiler-synthesised defer/go wrapper
// closure) counts once too. Diagnostics outside hot function extents
// are dropped.
func TestFoldDiagnostics(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := l.Load(filepath.Join("testdata", "src", "hotset"))
	if err != nil {
		t.Fatalf("loading hotset fixture: %v", err)
	}
	prog := NewProgram(pkgs)

	var file, wantKey string
	var runLine int
	for fn, fi := range prog.fns {
		if hotFnName(fn) != "Sim.Run" {
			continue
		}
		pos := fi.pkg.Fset.Position(fi.decl.Pos())
		rel, err := filepath.Rel(l.ModRoot, pos.Filename)
		if err != nil {
			t.Fatalf("Rel(%s, %s): %v", l.ModRoot, pos.Filename, err)
		}
		file = filepath.ToSlash(rel)
		runLine = pos.Line + 1
		wantKey = budgetKey(l.ModPath, fi)
	}
	if file == "" {
		t.Fatal("hotset fixture has no Sim.Run")
	}

	out := fmt.Sprintf(`# hipcloud/internal/analysis/testdata/src/hotset
%[1]s:%[2]d:6: v escapes to heap:
%[1]s:%[2]d:6:   flow: {heap} = &v:
%[1]s:%[2]d:6: v escapes to heap
%[1]s:%[2]d:10: w escapes to heap:
%[1]s:%[2]d:10:   flow: {heap} = &w:
%[1]s:%[2]d:10: moved to heap: w
%[1]s:%[2]d:14: func literal escapes to heap:
%[1]s:%[2]d:14:   flow: {heap} = &{storage for func literal}:
%[1]s:%[2]d:3: Found IsInBounds
%[1]s:%[2]d:5: Found IsSliceInBounds
%[1]s:1:1: x escapes to heap
`, file, runLine)

	b := foldDiagnostics(prog, l.ModRoot, l.ModPath, out)
	want := map[string]BudgetEntry{wantKey: {Escapes: 3, Bounds: 2}}
	if !reflect.DeepEqual(b.Functions, want) {
		t.Errorf("foldDiagnostics = %v, want %v", b.Functions, want)
	}
}

func TestDiffBudget(t *testing.T) {
	tracked := &Budget{Functions: map[string]BudgetEntry{
		"a.F": {Escapes: 2, Bounds: 1},
		"b.G": {Escapes: 0, Bounds: 3},
		"c.H": {Escapes: 1, Bounds: 1},
	}}
	if drift := DiffBudget(tracked, tracked); len(drift) != 0 {
		t.Errorf("identical budgets drifted: %v", drift)
	}

	current := &Budget{Functions: map[string]BudgetEntry{
		"a.F": {Escapes: 3, Bounds: 1}, // regression: more escapes
		"b.G": {Escapes: 0, Bounds: 2}, // improvement: fewer bounds checks
		"c.H": {Escapes: 1, Bounds: 1}, // unchanged
		"d.I": {Escapes: 1, Bounds: 0}, // new hot cost: regression
	}}
	drift := DiffBudget(tracked, current)
	if len(drift) != 3 {
		t.Fatalf("got %d drift lines, want 3: %v", len(drift), drift)
	}
	// Regressions come first (sorted), improvements after.
	if !strings.HasPrefix(drift[0], "regression: a.F:") {
		t.Errorf("drift[0] = %q, want the a.F regression first", drift[0])
	}
	if !strings.HasPrefix(drift[1], "regression: d.I:") {
		t.Errorf("drift[1] = %q, want the d.I regression second", drift[1])
	}
	if !strings.HasPrefix(drift[2], "improvement") || !strings.Contains(drift[2], "b.G:") {
		t.Errorf("drift[2] = %q, want the b.G improvement last", drift[2])
	}

	// A vanished hot function with non-zero counts is an improvement.
	gone := &Budget{Functions: map[string]BudgetEntry{
		"a.F": {Escapes: 2, Bounds: 1},
		"c.H": {Escapes: 1, Bounds: 1},
	}}
	drift = DiffBudget(tracked, gone)
	if len(drift) != 1 || !strings.HasPrefix(drift[0], "improvement") || !strings.Contains(drift[0], "b.G:") {
		t.Errorf("dropping b.G: drift = %v, want one b.G improvement", drift)
	}
}

func TestBudgetLoadWriteRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), BudgetFile)

	// A missing snapshot bootstraps as empty (so the first -write run
	// can create it) rather than erroring.
	empty, err := LoadBudget(path)
	if err != nil {
		t.Fatalf("LoadBudget(missing) error: %v", err)
	}
	if len(empty.Functions) != 0 {
		t.Errorf("missing snapshot loaded %d functions, want 0", len(empty.Functions))
	}

	want := &Budget{Functions: map[string]BudgetEntry{
		"internal/netsim.Sim.fire":           {Escapes: 2, Bounds: 5},
		"internal/esp.OutboundSA.SealAppend": {Escapes: 0, Bounds: 7},
	}}
	if err := WriteBudget(path, want); err != nil {
		t.Fatalf("WriteBudget: %v", err)
	}
	got, err := LoadBudget(path)
	if err != nil {
		t.Fatalf("LoadBudget: %v", err)
	}
	if !reflect.DeepEqual(got.Functions, want.Functions) {
		t.Errorf("round trip = %v, want %v", got.Functions, want.Functions)
	}
	if got.Note != budgetNote {
		t.Errorf("Note not normalized on write: %q", got.Note)
	}

	// Stable serialization: write twice, identical bytes, trailing
	// newline (keeps regenerated snapshots diff-friendly).
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteBudget(path, got); err != nil {
		t.Fatalf("WriteBudget(again): %v", err)
	}
	second, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Error("WriteBudget is not byte-stable across regeneration")
	}
	if len(first) == 0 || first[len(first)-1] != '\n' {
		t.Error("snapshot must end with a trailing newline")
	}

	esc, bnd := BudgetTotals(got)
	if esc != 2 || bnd != 12 {
		t.Errorf("BudgetTotals = (%d, %d), want (2, 12)", esc, bnd)
	}
}

// TestHotPathFixtureBudget runs the real compiler over the hotpath
// fixture. The idioms hotpath.go leaves to the compiler must each be
// counted by the budget fold, in the function that holds them: the
// defer-in-loop wrapper closure (fixture line 79), the four escaping
// &item{...} shapes (137, 139, 140, 141) and fmt.Sprintf's boxed
// argument (147).
func TestHotPathFixtureBudget(t *testing.T) {
	const fixture = "internal/analysis/testdata/src/hotpath"
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := l.Load(filepath.Join(l.ModRoot, fixture))
	if err != nil {
		t.Fatalf("loading hotpath fixture: %v", err)
	}
	b, err := ComputeBudget(NewProgram(pkgs), "go", l.ModRoot, l.ModPath, []string{"./" + fixture})
	if err != nil {
		t.Fatal(err)
	}
	for fn, want := range map[string]int{
		"Sim.deferLoop":  1,
		"Sim.composites": 4,
		"Sim.logging":    1,
	} {
		if got := b.Functions[fixture+"."+fn].Escapes; got != want {
			t.Errorf("%s: budget counts %d escape(s), want %d", fn, got, want)
		}
	}
}
