package main

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestParseDiagnostics(t *testing.T) {
	lines := []string{
		"internal/core/x.go:6:2: y escapes to heap:",
		"internal/core/x.go:6:2:   flow: {heap} = &y:", // flow trace: not a finding
		"internal/core/x.go:7:5: moved to heap: tmp",
		"internal/core/x.go:8:9: Found IsInBounds",
		"internal/core/x.go:9:3: Found IsSliceInBounds",
		"internal/core/x.go:6:2: y escapes to heap:", // replayed by a dependent compile: deduped
		"internal/core/x.go:10:1: inlining call to foo",
		"  internal/core/x.go:6:2: indented, not a diagnostic",
		"# sparta/internal/core",
		"/usr/local/go/src/slices/zsortanyfunc.go:20:9: Found IsInBounds", // stdlib generic code: not ours
		"",
	}
	got := parseDiagnostics(lines)
	want := []perfFinding{
		{File: "internal/core/x.go", Line: 6, Col: 2, Kind: "escape", Msg: "y escapes to heap"},
		{File: "internal/core/x.go", Line: 7, Col: 5, Kind: "escape", Msg: "moved to heap: tmp"},
		{File: "internal/core/x.go", Line: 8, Col: 9, Kind: "bounds", Msg: "Found IsInBounds"},
		{File: "internal/core/x.go", Line: 9, Col: 3, Kind: "bounds", Msg: "Found IsSliceInBounds"},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d findings, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("finding %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestAttributeFindings checks the function naming: methods as Type.Method,
// literals as Outer.funcN, and a diagnostic at a literal's own position
// (the closure allocation) attributed to the enclosing function.
func TestAttributeFindings(t *testing.T) {
	modRoot := t.TempDir()
	src := `package core

type T struct{}

func (t *T) Method() {
	_ = 1
}

func Outer() {
	f := func() {
		_ = 2
	}
	f()
}
`
	dir := filepath.Join(modRoot, "internal", "core")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "x.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	raw := []perfFinding{
		{File: "internal/core/x.go", Line: 6, Col: 2, Kind: "escape"},
		{File: "internal/core/x.go", Line: 11, Col: 3, Kind: "bounds"},
		{File: "internal/core/x.go", Line: 10, Col: 7, Kind: "escape", Msg: "func literal escapes to heap"},
	}
	got, err := attributeFindings(modRoot, raw)
	if err != nil {
		t.Fatal(err)
	}
	wantFn := map[int]string{ // keyed by line
		6:  "internal/core.T.Method",
		11: "internal/core.Outer.func1",
		10: "internal/core.Outer", // the allocation belongs to the allocator
	}
	for _, f := range got {
		if want := wantFn[f.Line]; f.Fn != want {
			t.Errorf("line %d attributed to %q, want %q", f.Line, f.Fn, want)
		}
	}
}

func TestTallyAndCleanViolations(t *testing.T) {
	findings := []perfFinding{
		{Fn: "internal/sortx.lsdRange", Kind: "bounds"},
		{Fn: "internal/sortx.lsdRange", Kind: "bounds"},
		{Fn: "internal/core.other", Kind: "escape"},
	}
	counts := tallyFindings(findings)
	if c := counts["internal/sortx.lsdRange"]; c.Bounds != 2 || c.Escapes != 0 {
		t.Errorf("lsdRange counts = %+v, want 2 bounds", c)
	}
	viol := cleanViolations(counts)
	if len(viol) != 1 || viol[0] != "internal/sortx.lsdRange" {
		t.Errorf("cleanViolations = %v, want [internal/sortx.lsdRange] (a marquee loop)", viol)
	}
}

func TestBudgetRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lint", "hotpath_budget.json")
	counts := map[string]perfCounts{
		"internal/core.gather": {Escapes: 3, Bounds: 1},
	}
	if err := writeBudget(path, counts); err != nil {
		t.Fatal(err)
	}
	b, err := readBudget(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Functions["internal/core.gather"]; got != (perfCounts{Escapes: 3, Bounds: 1}) {
		t.Errorf("round-tripped counts = %+v", got)
	}
	// The marquee loops are stamped explicitly at zero even with no findings.
	for _, fn := range perfClean {
		c, ok := b.Functions[fn]
		if !ok {
			t.Errorf("budget is missing the zero entry for clean loop %s", fn)
		}
		if c.Escapes != 0 || c.Bounds != 0 {
			t.Errorf("clean loop %s stamped at %+v, want zero", fn, c)
		}
	}
	// Functions absent from the map have budget zero (the map's zero value).
	if c := b.Functions["internal/core.absent"]; c.Escapes != 0 || c.Bounds != 0 {
		t.Errorf("absent function budget = %+v, want zero", c)
	}
}

// TestCommittedBudget pins the acceptance contract: the budget checked into
// the repo holds every marquee loop at zero escapes and zero bounds checks.
func TestCommittedBudget(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	modRoot, _, err := findModule(wd)
	if err != nil {
		t.Fatal(err)
	}
	b, err := readBudget(filepath.Join(modRoot, filepath.FromSlash(budgetRelPath)))
	if err != nil {
		t.Fatalf("committed budget unreadable (run make perf-baseline): %v", err)
	}
	if len(b.Clean) != len(perfClean) {
		t.Errorf("committed clean list has %d entries, perfClean has %d; re-stamp the baseline", len(b.Clean), len(perfClean))
	}
	for _, fn := range perfClean {
		c, ok := b.Functions[fn]
		if !ok {
			t.Errorf("committed budget is missing clean loop %s", fn)
			continue
		}
		if c.Escapes != 0 || c.Bounds != 0 {
			t.Errorf("committed budget allows %d escape(s), %d bounds check(s) in %s; the marquee loops must stay at zero",
				c.Escapes, c.Bounds, fn)
		}
	}
}

// TestPerfGateEndToEnd builds a throwaway module with a deliberate heap
// escape in a budgeted package and runs the real -perf pipeline against a
// zero budget: the gate must fail, a baseline stamp must then succeed, and
// the re-check against the fresh baseline must pass. The stamp also pins
// the inlining rule: an allocating helper inlined into two callers is
// charged one escape in itself and one in each caller.
func TestPerfGateEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a scratch module")
	}
	modRoot := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(modRoot, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module tmpmod\n\ngo 1.22\n")
	write("internal/core/esc.go", `package core

// Leak deliberately escapes a local to the heap.
func Leak() *int {
	x := 42
	return &x
}
`)
	write("internal/core/inline.go", `package core

type box struct{ v int }

func newBox(v int) *box { return &box{v: v} }

func CallerA() *box { return newBox(1) }

func CallerB() *box { return newBox(2) }
`)
	for _, pkg := range perfPackages {
		if pkg != "internal/core" {
			write(pkg+"/empty.go", "package "+filepath.Base(pkg)+"\n")
		}
	}
	write(budgetRelPath, `{"functions":{}}`)

	t.Chdir(modRoot)
	if err := perfMain(false); !errors.Is(err, errBudgetExceeded) {
		t.Fatalf("perfMain against a zero budget = %v, want errBudgetExceeded", err)
	}
	if err := perfMain(true); err != nil {
		t.Fatalf("perfMain baseline stamp failed: %v", err)
	}
	budget, err := readBudget(budgetRelPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range []string{"newBox", "CallerA", "CallerB"} {
		if got := budget.Functions["internal/core."+fn].Escapes; got != 1 {
			t.Errorf("%s stamped with %d escape(s), want 1 (an inlined callee's escape is charged to each caller)", fn, got)
		}
	}
	if err := perfMain(false); err != nil {
		t.Fatalf("perfMain after re-stamp = %v, want clean", err)
	}
}
