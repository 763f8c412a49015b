package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// suppression is one parsed //lint:allow comment.
type suppression struct {
	pos    token.Position
	check  string
	reason string
	used   bool
}

// parseSuppressions extracts every //lint:allow comment in pkg. Malformed
// comments (missing check name or reason) come back as diagnostics under
// the synthetic check name "lint" and are excluded from the suppression
// list.
func parseSuppressions(pkg *Package) ([]suppression, []Diagnostic) {
	var sups []suppression
	var bad []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:allow")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{
						Pos:     pos,
						Check:   "lint",
						Message: "suppression is missing a check name and/or reason: want //lint:allow <check> <reason>",
					})
					continue
				}
				sups = append(sups, suppression{
					pos:    pos,
					check:  fields[0],
					reason: strings.Join(fields[1:], " "),
				})
			}
		}
	}
	return sups, bad
}

// knownCheckNames is every name a //lint:allow comment may legally carry:
// the full analyzer suite plus the synthetic "lint" check the suppression
// machinery reports under.
func knownCheckNames() map[string]bool {
	known := map[string]bool{"lint": true}
	for _, a := range All() {
		known[a.Name] = true
	}
	return known
}

// applySuppressions filters diags through the package's //lint:allow
// comments and appends a diagnostic for every defective suppression.
//
// A comment
//
//	//lint:allow <check> <reason...>
//
// silences diagnostics of <check> on its own line or on the line directly
// below it (so it can trail the flagged statement or sit above it). Three
// defects are themselves findings, reported under the synthetic check
// name "lint" and impossible to waive:
//
//   - a suppression with no reason string (every waiver must say why);
//   - a check name no analyzer answers to (typo'd waivers silently
//     accept the finding they meant to document);
//   - a waiver whose check ran over the package and flagged nothing on
//     its lines (the code was fixed, or the waiver never matched — either
//     way it is dead and must be deleted).
//
// Unused-ness is only judged for checks in ran: a simdet waiver is not
// "unused" during a -checks=secflow run that never gave it a chance.
func applySuppressions(pkg *Package, diags []Diagnostic, ran []*Analyzer) []Diagnostic {
	sups, bad := parseSuppressions(pkg)
	diags = append(diags, bad...)

	known := knownCheckNames()
	ranSet := make(map[string]bool, len(ran))
	for _, a := range ran {
		ranSet[a.Name] = true
	}

	var out []Diagnostic
	for _, d := range diags {
		suppressed := false
		for i := range sups {
			s := &sups[i]
			if s.check != d.Check || s.pos.Filename != d.Pos.Filename {
				continue
			}
			if s.pos.Line == d.Pos.Line || s.pos.Line == d.Pos.Line-1 {
				s.used = true
				suppressed = true
				break
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	for _, s := range sups {
		switch {
		case !known[s.check]:
			out = append(out, Diagnostic{
				Pos:     s.pos,
				Check:   "lint",
				Message: fmt.Sprintf("//lint:allow names unknown check %q; it suppresses nothing (see hiplint -list for check names)", s.check),
			})
		case ranSet[s.check] && !s.used:
			out = append(out, Diagnostic{
				Pos:     s.pos,
				Check:   "lint",
				Message: "unused //lint:allow " + s.check + ": the check reports nothing on this line or the next; delete the waiver",
			})
		}
	}
	return out
}

// Waiver is one active, well-formed //lint:allow comment, as listed by
// `hiplint -waivers`.
type Waiver struct {
	Pos    token.Position
	Check  string
	Reason string
}

// CollectWaivers lists every well-formed waiver across pkgs, sorted by
// position, so the waiver inventory is auditable in one command.
func CollectWaivers(pkgs []*Package) []Waiver {
	var out []Waiver
	for _, pkg := range pkgs {
		sups, _ := parseSuppressions(pkg)
		for _, s := range sups {
			out = append(out, Waiver{Pos: s.pos, Check: s.check, Reason: s.reason})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	return out
}
