// Package analysis is a small from-scratch static-analysis framework on
// the stdlib go/ast + go/parser + go/types toolchain (no x/tools,
// preserving the repo's stdlib-only rule).
//
// It exists to turn the prose contracts of DESIGN.md §5a — append-API
// aliasing, simulator determinism, constant-time comparison, lock
// ordering — into machine-checked invariants that run on every
// `make check` via the cmd/hiplint driver.
//
// The model mirrors x/tools/go/analysis in miniature: an Analyzer is a
// named check with a Run function; a Pass hands the Run function one
// type-checked package and collects Diagnostics. Findings can be
// suppressed at the source line with
//
//	//lint:allow <check> <reason>
//
// on the flagged line or the line directly above it. A suppression with
// no reason string is itself a diagnostic: every waiver must say why.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
)

// Analyzer is one named static check.
type Analyzer struct {
	// Name is the check's identifier, used in diagnostics and in
	// //lint:allow comments.
	Name string
	// Doc is a one-line description shown by `hiplint -list`.
	Doc string
	// Run inspects the package in pass and reports findings through
	// pass.Report / pass.Reportf.
	Run func(pass *Pass)
}

// Diagnostic is one finding at one source position.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	// Prog holds the whole-run interprocedural facts (call graph and
	// function summaries over every loaded package). Always non-nil:
	// single-package runs get a single-package program.
	Prog *Program

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.diags = append(p.diags, Diagnostic{
		Pos:     p.Pkg.Fset.Position(pos),
		Check:   p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Files returns the package's parsed files.
func (p *Pass) Files() []*ast.File { return p.Pkg.Files }

// Run applies the analyzers to one package in isolation: a single-package
// Program is built so interprocedural facts cover the package's own
// functions (the fixture harness relies on this; helpers a fixture wants
// summarized live in the fixture package itself).
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	return RunProgram(NewProgram([]*Package{pkg}), analyzers)
}

// RunProgram applies the analyzers to every package of prog and returns
// the surviving diagnostics: suppressed findings are removed, malformed,
// unknown-check and unused suppressions are added, and the result is
// sorted by position. This is the single entry point shared by the
// hiplint driver and the fixture test harness.
func RunProgram(prog *Program, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range prog.Pkgs {
		var pkgDiags []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, Prog: prog}
			a.Run(pass)
			pkgDiags = append(pkgDiags, pass.diags...)
		}
		diags = append(diags, applySuppressions(pkg, pkgDiags, analyzers)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
	return diags
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		AppendAlias,
		SimDet,
		SecFlow,
		LockOrder,
		HotPath,
	}
}

// ByName resolves a comma-separated selection against All; unknown names
// are returned as an error value so the driver can fail loudly.
func ByName(names []string) ([]*Analyzer, error) {
	all := All()
	var out []*Analyzer
	for _, n := range names {
		found := false
		for _, a := range all {
			if a.Name == n {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown check %q", n)
		}
	}
	return out, nil
}
