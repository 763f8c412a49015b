package analysis

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// The budget layer is the second half of the hotpath contract: where
// hotpath.go flags the allocation *idioms* only the AST shows, this file
// ingests the compiler's own verdicts — escape analysis (-m=2) and
// bounds-check elimination debugging (-d=ssa/check_bce/debug=1) — and
// pins the per-function counts inside the hot set to a tracked snapshot,
// LINT_BUDGET.json. Whatever the compiler reports is owned here and
// nowhere else: defer/go wrapper closures, the allocations of fmt, log
// and errors.New, heap-escaping composite literals. `hiplint -budget`
// recomputes the counts and fails on ANY drift: a regression (new escape
// / new unchecked bounds access in a hot function) must be fixed, and an
// improvement must be committed with `hiplint -budget -write`, so the
// snapshot is always the exact current cost and the trajectory is
// visible in review diffs. The go build cache replays compiler
// diagnostics on cached builds, so repeat runs are cheap.

// GcflagsBudget is the compiler flag set the budget runs under: full
// escape-analysis commentary plus a line for every bounds check the SSA
// backend could not eliminate.
const GcflagsBudget = "-m=2 -d=ssa/check_bce/debug=1"

// BudgetFile is the tracked snapshot's filename, at the module root.
const BudgetFile = "LINT_BUDGET.json"

// BudgetEntry is the per-function diagnostic count pair.
type BudgetEntry struct {
	// Escapes counts values the compiler moved to the heap inside the
	// function ("escapes to heap" / "moved to heap", each value once —
	// see foldDiagnostics — flow commentary excluded).
	Escapes int `json:"escapes"`
	// Bounds counts array/slice accesses whose bounds check the SSA
	// backend kept ("Found IsInBounds" / "Found IsSliceInBounds").
	Bounds int `json:"bounds"`
}

// Budget is the serialized form of LINT_BUDGET.json: per-hot-function
// diagnostic counts, keyed "relative/pkg/path.Recv.Func".
type Budget struct {
	Note      string                 `json:"_note"`
	Functions map[string]BudgetEntry `json:"functions"`
}

const budgetNote = "Per-function compiler-diagnostic counts over the hotpath hot set " +
	"(escape analysis + retained bounds checks). Regenerate with `make lint-budget` " +
	"(hiplint -budget -write); `make check` fails when the tree drifts from this snapshot."

// hotSpan is one hot function's source extent, for mapping compiler
// diagnostics (file:line) back to the function they landed in.
type hotSpan struct {
	startLine int
	endLine   int
	key       string
}

// budgetKey names one hot function the way LINT_BUDGET.json does: the
// package path relative to the module, then receiver type and function
// name.
func budgetKey(modPath string, fi *funcInfo) string {
	pkgPath := fi.pkg.ImportPath
	if rest, ok := strings.CutPrefix(pkgPath, modPath+"/"); ok {
		pkgPath = rest
	}
	return pkgPath + "." + hotFnName(fi.fn)
}

// hotSpans indexes the hot set by source file: file path (relative to
// modRoot, slash-separated) to the line spans of the hot functions it
// contains.
func hotSpans(prog *Program, modRoot, modPath string) map[string][]hotSpan {
	spans := make(map[string][]hotSpan)
	hot := prog.HotSet()
	for _, fn := range prog.order {
		if hot[fn] == nil {
			continue
		}
		fi := prog.fns[fn]
		start := fi.pkg.Fset.Position(fi.decl.Pos())
		end := fi.pkg.Fset.Position(fi.decl.End())
		file := start.Filename
		if rel, err := filepath.Rel(modRoot, file); err == nil {
			file = filepath.ToSlash(rel)
		}
		spans[file] = append(spans[file], hotSpan{
			startLine: start.Line,
			endLine:   end.Line,
			key:       budgetKey(modPath, fi),
		})
	}
	for _, ss := range spans {
		sort.Slice(ss, func(i, j int) bool { return ss[i].startLine < ss[j].startLine })
	}
	return spans
}

// ComputeBudget builds the module with the budget gcflags and folds the
// resulting diagnostics onto the hot set. goCmd is the go tool ("go"
// normally; tests may substitute a stub). The build runs in modRoot so
// diagnostic paths come back module-relative.
func ComputeBudget(prog *Program, goCmd, modRoot, modPath string, patterns []string) (*Budget, error) {
	args := append([]string{"build", "-gcflags=" + GcflagsBudget}, patterns...)
	cmd := exec.Command(goCmd, args...)
	cmd.Dir = modRoot
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go build -gcflags=%q: %v\n%s", GcflagsBudget, err, out)
	}
	return foldDiagnostics(prog, modRoot, modPath, string(out)), nil
}

// foldDiagnostics parses compiler output and counts the escape and
// bounds-check heads that land inside hot functions.
//
// -m=2 reports an escape as a head ending in ':' (flow commentary
// follows) and then again as the plain -m line, or as "moved to heap: x"
// when x is a variable: the plain and moved lines are the ones counted.
// A head counts only when it has neither twin — the compiler-synthesised
// wrapper closures of `defer x.Unlock()` in a loop and `go p.loop()`
// print the head alone, and each is a heap allocation.
func foldDiagnostics(prog *Program, modRoot, modPath, out string) *Budget {
	spans := hotSpans(prog, modRoot, modPath)
	b := &Budget{Note: budgetNote, Functions: make(map[string]BudgetEntry)}
	type movedVar struct {
		file string
		ln   int
		name string
	}
	lines := strings.Split(out, "\n")
	plain := make(map[string]bool)   // every "file:line:col: x escapes to heap" line
	moved := make(map[movedVar]bool) // every "moved to heap: x", by file:line
	for _, line := range lines {
		file, ln, msg, ok := parseDiagLine(line)
		if !ok {
			continue
		}
		if name, ok := strings.CutPrefix(msg, "moved to heap: "); ok {
			moved[movedVar{file, ln, name}] = true
		} else if strings.HasSuffix(msg, " escapes to heap") {
			plain[line] = true
		}
	}
	for _, line := range lines {
		file, ln, msg, ok := parseDiagLine(line)
		if !ok {
			continue
		}
		var isEscape bool
		if name, ok := strings.CutSuffix(msg, " escapes to heap:"); ok {
			isEscape = !plain[strings.TrimSuffix(line, ":")] && !moved[movedVar{file, ln, name}]
		} else {
			isEscape = strings.Contains(msg, "moved to heap") ||
				(strings.Contains(msg, "escapes to heap") && !strings.HasSuffix(msg, ":"))
		}
		isBounds := strings.Contains(msg, "Found IsInBounds") || strings.Contains(msg, "Found IsSliceInBounds")
		if !isEscape && !isBounds {
			continue
		}
		key, hit := lookupSpan(spans, file, ln)
		if !hit {
			continue
		}
		e := b.Functions[key]
		if isEscape {
			e.Escapes++
		} else {
			e.Bounds++
		}
		b.Functions[key] = e
	}
	return b
}

// parseDiagLine splits "path/file.go:line:col: message", rejecting the
// indented flow-commentary continuation lines -m=2 emits under each
// escape head (their message starts with whitespace).
func parseDiagLine(line string) (file string, ln int, msg string, ok bool) {
	i := strings.Index(line, ".go:")
	if i < 0 || strings.HasPrefix(line, "#") {
		return "", 0, "", false
	}
	file = line[:i+3]
	rest := line[i+4:]
	j := strings.IndexByte(rest, ':')
	if j < 0 {
		return "", 0, "", false
	}
	ln, err := strconv.Atoi(rest[:j])
	if err != nil {
		return "", 0, "", false
	}
	rest = rest[j+1:]
	// column (optional in principle — tolerate its absence)
	if k := strings.IndexByte(rest, ':'); k >= 0 {
		if _, err := strconv.Atoi(rest[:k]); err == nil {
			rest = rest[k+1:]
		}
	}
	msg = strings.TrimPrefix(rest, " ")
	if msg == "" || msg[0] == ' ' || msg[0] == '\t' {
		return "", 0, "", false // flow commentary, not a diagnostic head
	}
	return filepath.ToSlash(file), ln, msg, true
}

// lookupSpan finds the hot function whose extent contains file:line.
func lookupSpan(spans map[string][]hotSpan, file string, line int) (string, bool) {
	for _, s := range spans[file] {
		if s.startLine <= line && line <= s.endLine {
			return s.key, true
		}
	}
	return "", false
}

// DiffBudget compares the freshly computed budget against the tracked
// snapshot and describes every drift, regressions first. An empty result
// means the tree matches the snapshot.
func DiffBudget(tracked, current *Budget) []string {
	var regressions, improvements []string
	keys := make(map[string]bool)
	for k := range tracked.Functions {
		keys[k] = true
	}
	for k := range current.Functions {
		keys[k] = true
	}
	ordered := make([]string, 0, len(keys))
	for k := range keys {
		ordered = append(ordered, k)
	}
	sort.Strings(ordered)
	for _, k := range ordered {
		old, cur := tracked.Functions[k], current.Functions[k]
		if old == cur {
			continue
		}
		line := fmt.Sprintf("%s: escapes %d -> %d, bounds %d -> %d", k, old.Escapes, cur.Escapes, old.Bounds, cur.Bounds)
		if cur.Escapes > old.Escapes || cur.Bounds > old.Bounds {
			regressions = append(regressions, "regression: "+line)
		} else {
			improvements = append(improvements, "improvement (commit the refreshed snapshot): "+line)
		}
	}
	return append(regressions, improvements...)
}

// LoadBudget reads the tracked snapshot; a missing file returns an empty
// budget (so the first -write run bootstraps it).
func LoadBudget(path string) (*Budget, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &Budget{Note: budgetNote, Functions: map[string]BudgetEntry{}}, nil
	}
	if err != nil {
		return nil, err
	}
	var b Budget
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if b.Functions == nil {
		b.Functions = map[string]BudgetEntry{}
	}
	return &b, nil
}

// WriteBudget writes the snapshot with stable formatting (sorted keys,
// trailing newline) so regeneration is diff-friendly.
func WriteBudget(path string, b *Budget) error {
	b.Note = budgetNote
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// BudgetTotals sums a budget for the -counts trajectory report.
func BudgetTotals(b *Budget) (escapes, bounds int) {
	for _, e := range b.Functions {
		escapes += e.Escapes
		bounds += e.Bounds
	}
	return escapes, bounds
}
