package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// want markers in fixture files:  // want <col> "substring"
// The diagnostic must sit at that file, line and column, and its message
// must contain the quoted substring.
var wantRE = regexp.MustCompile(`// want (\d+) "([^"]+)"`)

type expect struct {
	file     string
	line     int
	col      int
	analyzer string
	contains string
}

// loadFixture type-checks one fixture package under testdata/src, giving it
// the synthetic module path "fix" so path-sensitive analyzers (chunkloop,
// hotpanic) see the import-path shapes they key on.
func loadFixture(t *testing.T, path string) *Package {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	l := newLoader(root, "fix")
	p, err := l.load(path)
	if err != nil {
		t.Fatalf("load fixture %s: %v", path, err)
	}
	return p
}

// parseWants scans the fixture's files for want markers.
func parseWants(t *testing.T, p *Package, analyzer string) []expect {
	t.Helper()
	var wants []expect
	ents, err := os.ReadDir(p.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		file := filepath.Join(p.Dir, e.Name())
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
				var col int
				fmt.Sscanf(m[1], "%d", &col)
				wants = append(wants, expect{file, i + 1, col, analyzer, m[2]})
			}
		}
	}
	return wants
}

// runFixture runs one analyzer (with the suppression machinery, like the
// real driver) over a fixture package and checks the findings against the
// want markers exactly: same file, line, column, and message substring —
// nothing missing, nothing extra.
func runFixture(t *testing.T, path string, a *Analyzer, extra ...expect) {
	t.Helper()
	p := loadFixture(t, path)
	pkgs := []*Package{p}
	sup, supDiags := collectSuppressions(pkgs)
	diags := append([]Diagnostic(nil), supDiags...)
	for _, d := range a.Run(pkgs) {
		if !suppressed(sup, d) {
			diags = append(diags, d)
		}
	}
	wants := append(parseWants(t, p, a.Name), extra...)

	matched := make([]bool, len(diags))
	for _, w := range wants {
		found := false
		for i, d := range diags {
			if matched[i] || d.Pos.Filename != w.file || d.Pos.Line != w.line ||
				d.Pos.Column != w.col || d.Analyzer != w.analyzer {
				continue
			}
			if !strings.Contains(d.Message, w.contains) {
				t.Errorf("%s:%d:%d: message %q does not contain %q", w.file, w.line, w.col, d.Message, w.contains)
			}
			matched[i] = true
			found = true
			break
		}
		if !found {
			t.Errorf("missing diagnostic %s at %s:%d:%d (want message containing %q)",
				w.analyzer, w.file, w.line, w.col, w.contains)
		}
	}
	for i, d := range diags {
		if !matched[i] {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

func TestAtomicmixFixture(t *testing.T) {
	runFixture(t, "fix/atomicmix", atomicmixAnalyzer)
}

func TestChunkloopFixture(t *testing.T) {
	runFixture(t, "fix/internal/chunkfix", chunkloopAnalyzer)
}

func TestLnoverflowFixture(t *testing.T) {
	runFixture(t, "fix/lnoverflow", lnoverflowAnalyzer)
}

func TestHotpanicFixture(t *testing.T) {
	runFixture(t, "fix/internal/core", hotpanicAnalyzer)
}

func TestBareerrFixture(t *testing.T) {
	runFixture(t, "fix/bareerr", bareerrAnalyzer)
}

func TestSpanleakFixture(t *testing.T) {
	runFixture(t, "fix/spanleak", spanleakAnalyzer)
}

func TestCtxloopFixture(t *testing.T) {
	runFixture(t, "fix/ctxloop", ctxloopAnalyzer)
}

func TestDeferinloopFixture(t *testing.T) {
	runFixture(t, "fix/internal/sortx", deferinloopAnalyzer)
}

func TestAtomicalignFixture(t *testing.T) {
	runFixture(t, "fix/atomicalign", atomicalignAnalyzer)
}

// TestSuppressionMachinery covers the directive plumbing itself: malformed
// and unknown-analyzer directives are reported and do not suppress, while a
// well-formed one silences its line.
func TestSuppressionMachinery(t *testing.T) {
	p := loadFixture(t, "fix/suppress")
	file := filepath.Join(p.Dir, "fix.go")
	runFixture(t, "fix/suppress", lnoverflowAnalyzer,
		expect{file, 7, 2, "lint", "malformed //lint:ignore"},
		expect{file, 9, 2, "lint", "unknown analyzer"},
	)
}

// TestModuleClean is the gate the Makefile encodes: the repo's own tree must
// lint clean. Run from the package directory, so point the walk at the
// module root.
func TestModuleClean(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	modRoot, _, err := findModule(wd)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint([]string{filepath.Join(modRoot, "...")})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("module not lint-clean: %s", d)
	}
}

// TestExpandSkipsTestdata guards the fixture firewall: ./... from the tool's
// own directory must not descend into testdata (which holds intentional
// violations).
func TestExpandSkipsTestdata(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	modRoot, modPath, err := findModule(wd)
	if err != nil {
		t.Fatal(err)
	}
	l := newLoader(modRoot, modPath)
	paths, err := l.expand([]string{filepath.Join(modRoot, "...")})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if strings.Contains(p, "testdata") {
			t.Errorf("expand leaked a testdata package: %s", p)
		}
	}
	if len(paths) < 10 {
		t.Errorf("expand found only %d packages, expected the whole module", len(paths))
	}
}
