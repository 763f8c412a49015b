// Command hiplint runs the repo's custom static-analysis suite
// (internal/analysis) over the given package patterns and exits non-zero
// on findings. It is wired into `make lint` and the `make check` gate.
//
// Usage:
//
//	hiplint [-checks secflow,lockorder,...] [-list] [-waivers] [-counts] [-budget [-write]] [patterns...]
//
// Patterns default to ./... and accept directories or module import
// paths, recursively with /... . All matched packages are loaded into one
// program, so the interprocedural analyzers (secflow, lockorder, and the
// summary-aware simdet) see cross-package call chains.
// Findings print as
//
//	file:line:col: [check] message
//
// and can be waived at the source line with //lint:allow <check> <reason>
// (the reason is mandatory; a bare waiver, an unknown check name, or a
// waiver that suppresses nothing is itself a finding).
//
// -waivers lists every active //lint:allow with file:line and reason
// instead of running the checks; -counts runs the checks and prints
// per-analyzer finding counts as JSON (exit 0 regardless), for tracking
// the finding trajectory across PRs via `make lint-fix-scan`.
//
// -budget runs the compiler-owned half of the hotpath contract instead
// of the AST analyzers (hotpath flags only the idioms the compiler does
// not report): it rebuilds the module with -gcflags='-m=2
// -d=ssa/check_bce/debug=1', folds the escape and bounds-check
// diagnostics onto the hot set, and compares the per-function counts
// against the tracked LINT_BUDGET.json at the module root. Any drift fails: regressions must be fixed, improvements must be
// committed by regenerating the snapshot with -budget -write (wired as
// `make lint-budget`).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"hipcloud/internal/analysis"
)

func main() {
	checks := flag.String("checks", "", "comma-separated subset of checks to run (default: all)")
	list := flag.Bool("list", false, "list available checks and exit")
	waivers := flag.Bool("waivers", false, "report every active //lint:allow waiver and exit")
	counts := flag.Bool("counts", false, "print per-analyzer finding counts as JSON (always exit 0)")
	budget := flag.Bool("budget", false, "check compiler escape/bounds diagnostics over the hot set against LINT_BUDGET.json")
	write := flag.Bool("write", false, "with -budget: regenerate LINT_BUDGET.json instead of diffing")
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := analysis.All()
	if *checks != "" {
		var err error
		analyzers, err = analysis.ByName(strings.Split(*checks, ","))
		if err != nil {
			fmt.Fprintln(os.Stderr, "hiplint:", err)
			os.Exit(2)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := analysis.NewLoader("")
	if err != nil {
		fmt.Fprintln(os.Stderr, "hiplint:", err)
		os.Exit(2)
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hiplint:", err)
		os.Exit(2)
	}

	if *waivers {
		ws := analysis.CollectWaivers(pkgs)
		for _, w := range ws {
			fmt.Printf("%s:%d: [%s] %s\n", w.Pos.Filename, w.Pos.Line, w.Check, w.Reason)
		}
		fmt.Printf("%d active waiver(s)\n", len(ws))
		return
	}

	prog := analysis.NewProgram(pkgs)

	if *budget {
		cur, err := analysis.ComputeBudget(prog, "go", loader.ModRoot, loader.ModPath, patterns)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hiplint:", err)
			os.Exit(2)
		}
		budgetPath := filepath.Join(loader.ModRoot, analysis.BudgetFile)
		if *write {
			if err := analysis.WriteBudget(budgetPath, cur); err != nil {
				fmt.Fprintln(os.Stderr, "hiplint:", err)
				os.Exit(2)
			}
			esc, bnd := analysis.BudgetTotals(cur)
			fmt.Printf("wrote %s: %d hot function(s), %d escape(s), %d retained bounds check(s)\n",
				analysis.BudgetFile, len(cur.Functions), esc, bnd)
			return
		}
		tracked, err := analysis.LoadBudget(budgetPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hiplint:", err)
			os.Exit(2)
		}
		drift := analysis.DiffBudget(tracked, cur)
		for _, d := range drift {
			fmt.Println(d)
		}
		if len(drift) > 0 {
			fmt.Printf("%d function(s) drifted from %s; fix regressions, then `make lint-budget` and commit\n",
				len(drift), analysis.BudgetFile)
			os.Exit(1)
		}
		return
	}

	diags := analysis.RunProgram(prog, analyzers)

	if *counts {
		byCheck := map[string]int{}
		for _, a := range analyzers {
			byCheck[a.Name] = 0
		}
		byCheck["lint"] = 0
		for _, d := range diags {
			byCheck[d.Check]++
		}
		out := struct {
			Findings map[string]int `json:"findings"`
			Total    int            `json:"total"`
			Waivers  int            `json:"waivers"`
			Budget   map[string]int `json:"budget"`
		}{Findings: byCheck, Total: len(diags), Waivers: len(analysis.CollectWaivers(pkgs)), Budget: map[string]int{}}
		// Fold in the budget-layer trajectory (hot-set size plus compiler
		// escape/bounds totals); a failed diagnostic build degrades to
		// zeros rather than failing the report.
		if cur, err := analysis.ComputeBudget(prog, "go", loader.ModRoot, loader.ModPath, patterns); err == nil {
			esc, bnd := analysis.BudgetTotals(cur)
			out.Budget["functions"] = len(cur.Functions)
			out.Budget["escapes"] = esc
			out.Budget["bounds"] = bnd
		} else {
			fmt.Fprintln(os.Stderr, "hiplint: budget layer skipped:", err)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "hiplint:", err)
			os.Exit(2)
		}
		return
	}

	failed := false
	for _, d := range diags {
		fmt.Println(d)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}
