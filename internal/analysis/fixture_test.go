package analysis

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts the quoted expectation patterns from a // want comment.
var wantRe = regexp.MustCompile(`"([^"]*)"`)

// loadFixture type-checks one testdata/src package.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := l.Load(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("fixture %s: got %d packages, want 1", name, len(pkgs))
	}
	return pkgs[0]
}

// checkFixture runs the analyzer over the fixture package and verifies
// its diagnostics against the fixture's // want comments:
//
//	stmt() // want "regexp" "another"
//
// expects matching diagnostics on that line;
//
//	// want:+1 "regexp"
//
// expects one on the following line (used when the flagged line is
// itself a comment, e.g. a malformed //lint:allow). Every diagnostic
// must be wanted and every want matched — so deleting an analyzer's
// detection logic fails the test.
func checkFixture(t *testing.T, fixture string, analyzer *Analyzer) {
	t.Helper()
	checkPkgs(t, fixture, []*Package{loadFixture(t, fixture)}, analyzer)
}

// loadFixtureMulti type-checks every package under
// testdata/src/<fixture>/... for one shared Program.
func loadFixtureMulti(t *testing.T, fixture string) []*Package {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := l.Load(filepath.Join("testdata", "src", fixture) + "/...")
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
	}
	if len(pkgs) < 2 {
		t.Fatalf("fixture %s: got %d packages, want at least 2 (use checkFixture for single-package fixtures)", fixture, len(pkgs))
	}
	return pkgs
}

// checkFixtureMulti checks // want comments across every package of a
// multi-package fixture: the harness for cross-package interprocedural
// cases, where the flagged call site and the summarized callee live in
// different packages.
func checkFixtureMulti(t *testing.T, fixture string, analyzer *Analyzer) {
	t.Helper()
	checkPkgs(t, fixture, loadFixtureMulti(t, fixture), analyzer)
}

func checkPkgs(t *testing.T, fixture string, pkgs []*Package, analyzer *Analyzer) {
	t.Helper()

	type lineKey struct {
		file string
		line int
	}
	type want struct {
		re   *regexp.Regexp
		used bool
	}
	wants := make(map[lineKey][]*want)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "// want")
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					line := pos.Line
					if rest, ok := strings.CutPrefix(text, ":+1"); ok {
						line++
						text = rest
					}
					for _, m := range wantRe.FindAllStringSubmatch(text, -1) {
						re, err := regexp.Compile(m[1])
						if err != nil {
							t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, m[1], err)
						}
						k := lineKey{pos.Filename, line}
						wants[k] = append(wants[k], &want{re: re})
					}
				}
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no // want expectations", fixture)
	}

	for _, d := range RunProgram(NewProgram(pkgs), []*Analyzer{analyzer}) {
		k := lineKey{d.Pos.Filename, d.Pos.Line}
		matched := false
		for _, w := range wants[k] {
			if !w.used && w.re.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, ws := range wants {
		for _, w := range ws {
			if !w.used {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, w.re)
			}
		}
	}
}

func TestAppendAliasFixture(t *testing.T) { checkFixture(t, "appendalias", AppendAlias) }
func TestCTCompareFixture(t *testing.T)   { checkFixture(t, "ctcompare", SecFlow) }
func TestSecFlowFixture(t *testing.T)     { checkFixture(t, "secflow", SecFlow) }
func TestLockOrderFixture(t *testing.T)   { checkFixture(t, "lockorder", LockOrder) }
func TestHotPathFixture(t *testing.T)     { checkFixture(t, "hotpath", HotPath) }
func TestHotSetFixture(t *testing.T)      { checkFixtureMulti(t, "hotset", HotPath) }

// TestSuppressFixture proves //lint:allow semantics: a justified waiver
// silences exactly one secflow diagnostic, an identical violation without
// one still fires, and a reason-less waiver is itself reported.
func TestSuppressFixture(t *testing.T) { checkFixture(t, "suppress", SecFlow) }
