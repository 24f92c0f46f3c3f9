package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// The -perf tier makes the compiler's own cost diagnostics a committed
// contract: go build -gcflags '-m -m' reports every value that escapes to
// the heap, -d=ssa/check_bce/debug=1 reports every bounds check the prover
// could not eliminate. Both are attributed to their enclosing function and
// diffed against lint/hotpath_budget.json; a count above budget fails the
// lint gate, so an innocent refactor that re-introduces an allocation into
// the HtY probe loop is caught at lint time, not in a flamegraph.

// perfPackages are the budgeted hot paths, relative to the module root.
// Kept in sync with hotPathPkgs (deferinloop.go); blocksparse and parallel
// are excluded here because their inner loops delegate to core/sortx.
var perfPackages = []string{
	"internal/coo",
	"internal/core",
	"internal/hashtab",
	"internal/lnum",
	"internal/sortx",
	"internal/spa",
}

// perfClean are the marquee inner loops that must carry ZERO escapes and
// ZERO bounds checks — the properties Sparta's speedups come from. The
// baseline writer refuses to stamp a budget that violates this list, so it
// cannot be relaxed by re-baselining; edit the list itself (with review)
// to change the contract.
var perfClean = []string{
	"internal/hashtab.HtYFlat.Lookup",      // ④ probe loop
	"internal/hashtab.countKeys",           // ① direct-arm histogram pass
	"internal/hashtab.scatterItems",        // ① direct-arm scatter into the arena
	"internal/sortx.lsdRange",              // ① LSD radix inner loop
	"internal/sortx.insertionKP",           // ① small-run fallback inside SortPairs
	"internal/core.gatherFused.func1",      // ⑤ fused-writeback scatter closure
	"internal/lnum.Radix.DecodeColumns",    // ④ free-Y column decode of a run
	"internal/lnum.decodeBlockCols",        // ④ its multi-mode block pass
	"internal/core.worker.accumulateDense", // ③ direct-indexed accumulate loop
	"internal/core.worker.flushDense",      // ④ occupancy-bitmap walk into Zlocal
}

// budgetRelPath is where the committed budget lives, relative to module root.
const budgetRelPath = "lint/hotpath_budget.json"

var errBudgetExceeded = errors.New("hot-path budget exceeded")

// perfCounts is one function's diagnostic budget.
type perfCounts struct {
	Escapes int `json:"escapes"`
	Bounds  int `json:"bounds"`
}

// perfBudget is the committed budget file.
type perfBudget struct {
	Comment   string                `json:"comment"`
	Packages  []string              `json:"packages"`
	Clean     []string              `json:"clean"`
	Functions map[string]perfCounts `json:"functions"`
}

// perfFinding is one compiler diagnostic attributed to a function.
type perfFinding struct {
	File string // module-relative path
	Line int
	Col  int
	Kind string // "escape" or "bounds"
	Msg  string
	Fn   string // "internal/core.gatherFused.func2"
}

func perfMain(baseline bool) error {
	wd, err := os.Getwd()
	if err != nil {
		return err
	}
	modRoot, _, err := findModule(wd)
	if err != nil {
		return err
	}
	findings, err := perfFindings(modRoot)
	if err != nil {
		return err
	}
	counts := tallyFindings(findings)
	if viol := cleanViolations(counts); len(viol) > 0 {
		for _, fn := range viol {
			fmt.Fprintf(os.Stderr, "sptc-lint -perf: %s must stay free of escapes and bounds checks (has %d escape(s), %d bounds check(s)):\n",
				fn, counts[fn].Escapes, counts[fn].Bounds)
			printFindingsFor(findings, fn)
		}
		if baseline {
			return fmt.Errorf("refusing to stamp a baseline that violates the zero-cost contract (fix the loops, or edit perfClean in cmd/sptc-lint/perf.go)")
		}
		return errBudgetExceeded
	}
	budgetPath := filepath.Join(modRoot, filepath.FromSlash(budgetRelPath))
	if baseline {
		return writeBudget(budgetPath, counts)
	}
	budget, err := readBudget(budgetPath)
	if err != nil {
		return fmt.Errorf("%v (run make perf-baseline to create it)", err)
	}
	over := 0
	for _, fn := range sortedKeys(counts) {
		c, b := counts[fn], budget.Functions[fn]
		if c.Escapes > b.Escapes || c.Bounds > b.Bounds {
			over++
			fmt.Fprintf(os.Stderr,
				"sptc-lint -perf: %s over budget: %d escape(s) (budget %d), %d bounds check(s) (budget %d)\n",
				fn, c.Escapes, b.Escapes, c.Bounds, b.Bounds)
			printFindingsFor(findings, fn)
		}
	}
	if over > 0 {
		fmt.Fprintf(os.Stderr,
			"sptc-lint -perf: %d function(s) over budget; fix the regression or deliberately re-stamp with make perf-baseline\n", over)
		return errBudgetExceeded
	}
	fmt.Printf("sptc-lint -perf: %d function(s) within budget, %d marquee loop(s) clean across %s\n",
		len(counts), len(perfClean), strings.Join(perfPackages, " "))
	return nil
}

// printFindingsFor lists the individual diagnostics behind one function's
// counts, so a failure reads like a compiler error.
func printFindingsFor(findings []perfFinding, fn string) {
	for _, f := range findings {
		if f.Fn == fn {
			fmt.Fprintf(os.Stderr, "  %s:%d:%d: [%s] %s\n", f.File, f.Line, f.Col, f.Kind, f.Msg)
		}
	}
}

// cleanViolations returns the perfClean entries with any findings at all.
func cleanViolations(counts map[string]perfCounts) []string {
	var out []string
	for _, fn := range perfClean {
		if c := counts[fn]; c.Escapes > 0 || c.Bounds > 0 {
			out = append(out, fn)
		}
	}
	return out
}

// perfFindings runs the compiler over the budgeted packages and returns the
// attributed diagnostics. The Go build cache replays -gcflags diagnostics
// on cache hits, so repeated runs are cheap and no cache-busting is needed.
func perfFindings(modRoot string) ([]perfFinding, error) {
	var lines []string
	for _, gcflags := range []string{"-m -m", "-d=ssa/check_bce/debug=1"} {
		out, err := runGoBuild(modRoot, gcflags, perfPackages)
		if err != nil {
			return nil, err
		}
		lines = append(lines, out...)
	}
	raw := parseDiagnostics(lines)
	return attributeFindings(modRoot, raw)
}

// runGoBuild invokes go build with the given -gcflags over pkgs (module-
// relative), returning stderr lines. A non-nil error means the build itself
// failed (diagnostics go to stderr even on success).
func runGoBuild(modRoot, gcflags string, pkgs []string) ([]string, error) {
	args := []string{"build", "-gcflags=" + gcflags}
	for _, p := range pkgs {
		args = append(args, "./"+p)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = modRoot
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go build -gcflags=%q: %v\n%s", gcflags, err, out)
	}
	return strings.Split(string(out), "\n"), nil
}

// diagRE matches one compiler diagnostic line: path:line:col: message.
// Indented lines (escape-analysis flow traces) do not match.
var diagRE = regexp.MustCompile(`^([^\s:][^:]*\.go):(\d+):(\d+): (.*)$`)

// parseDiagnostics extracts escape and bounds-check findings from compiler
// output, deduplicated (the build replays diagnostics once per dependent
// compile).
func parseDiagnostics(lines []string) []perfFinding {
	seen := map[string]bool{}
	var out []perfFinding
	for _, line := range lines {
		m := diagRE.FindStringSubmatch(line)
		if m == nil || filepath.IsAbs(m[1]) {
			// An absolute path is the standard library's generic code
			// instantiated by a budgeted package: not this module's to budget.
			continue
		}
		msg := strings.TrimSuffix(m[4], ":")
		var kind string
		switch {
		case strings.Contains(msg, "escapes to heap"), strings.HasPrefix(msg, "moved to heap"):
			kind = "escape"
		case strings.Contains(msg, "Found IsInBounds"), strings.Contains(msg, "Found IsSliceInBounds"):
			kind = "bounds"
		default:
			continue
		}
		key := m[1] + ":" + m[2] + ":" + m[3] + ":" + kind + ":" + msg
		if seen[key] {
			continue
		}
		seen[key] = true
		ln, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		out = append(out, perfFinding{File: filepath.ToSlash(m[1]), Line: ln, Col: col, Kind: kind, Msg: msg})
	}
	return out
}

// attributeFindings parses each flagged file once and names the innermost
// enclosing function of every finding: methods as Type.Method, function
// literals as Outer.funcN with N the literal's pre-order index within its
// top-level declaration (mirroring the compiler's naming closely enough to
// be stable and readable). The compiler reports an inlined callee's escape
// at each call site it is inlined into as well as in the callee, so each
// caller is charged too: the allocation happens in the caller's frame, and
// a budget can move when an inlining decision does.
func attributeFindings(modRoot string, raw []perfFinding) ([]perfFinding, error) {
	byFile := map[string][]int{}
	for i, f := range raw {
		byFile[f.File] = append(byFile[f.File], i)
	}
	fset := token.NewFileSet()
	for file, idxs := range byFile {
		abs := filepath.Join(modRoot, filepath.FromSlash(file))
		af, err := parser.ParseFile(fset, abs, nil, 0)
		if err != nil {
			return nil, fmt.Errorf("attribute %s: %v", file, err)
		}
		pkgRel := filepath.ToSlash(filepath.Dir(file))
		for _, i := range idxs {
			pos := findingPos(fset, af, raw[i].Line, raw[i].Col)
			raw[i].Fn = pkgRel + "." + enclosingFuncName(fset, af, pos)
		}
	}
	sort.Slice(raw, func(i, j int) bool {
		a, b := raw[i], raw[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	})
	return raw, nil
}

// findingPos converts a line:col diagnostic position into a token.Pos
// within the parsed file.
func findingPos(fset *token.FileSet, af *ast.File, line, col int) token.Pos {
	tf := fset.File(af.Pos())
	if line > tf.LineCount() {
		return af.End()
	}
	return tf.LineStart(line) + token.Pos(col-1)
}

// enclosingFuncName names the innermost function containing pos.
func enclosingFuncName(fset *token.FileSet, af *ast.File, pos token.Pos) string {
	for _, d := range af.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || pos < fd.Pos() || pos >= fd.End() {
			continue
		}
		name := fd.Name.Name
		if fd.Recv != nil && len(fd.Recv.List) > 0 {
			if rn := recvTypeName(fd.Recv.List[0].Type); rn != "" {
				name = rn + "." + name
			}
		}
		// Pre-order numbering of every FuncLit inside this declaration;
		// the innermost literal containing pos wins. Strictly inside: a
		// diagnostic at the literal's own position ("func literal escapes
		// to heap") is the enclosing function allocating the closure, not
		// a cost of the closure body.
		n := 0
		innermost := ""
		ast.Inspect(fd.Body, func(node ast.Node) bool {
			if fl, ok := node.(*ast.FuncLit); ok {
				n++
				if pos > fl.Pos() && pos < fl.End() {
					innermost = fmt.Sprintf("%s.func%d", name, n)
				}
			}
			return true
		})
		if innermost != "" {
			return innermost
		}
		return name
	}
	return "(file-scope)"
}

// recvTypeName extracts the receiver's base type name ("HtYFlat" from
// *HtYFlat).
func recvTypeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(t.X)
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr: // generic receiver
		return recvTypeName(t.X)
	}
	return ""
}

// tallyFindings folds findings into per-function counts.
func tallyFindings(findings []perfFinding) map[string]perfCounts {
	counts := map[string]perfCounts{}
	for _, f := range findings {
		c := counts[f.Fn]
		if f.Kind == "escape" {
			c.Escapes++
		} else {
			c.Bounds++
		}
		counts[f.Fn] = c
	}
	return counts
}

func sortedKeys(m map[string]perfCounts) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// readBudget loads the committed budget.
func readBudget(path string) (*perfBudget, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b perfBudget
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if b.Functions == nil {
		b.Functions = map[string]perfCounts{}
	}
	return &b, nil
}

// writeBudget stamps the baseline: every function with findings gets its
// current counts, and the perfClean loops are recorded explicitly at zero
// so the contract is visible in the committed file.
func writeBudget(path string, counts map[string]perfCounts) error {
	funcs := map[string]perfCounts{}
	for fn, c := range counts {
		funcs[fn] = c
	}
	for _, fn := range perfClean {
		if _, ok := funcs[fn]; !ok {
			funcs[fn] = perfCounts{}
		}
	}
	b := perfBudget{
		Comment: "Per-function heap-escape and bounds-check budget over the hot-path packages. " +
			"Regenerate deliberately with make perf-baseline; functions absent from this map have budget zero. " +
			"The clean list must stay at zero and cannot be re-stamped away.",
		Packages:  perfPackages,
		Clean:     perfClean,
		Functions: funcs,
	}
	data, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("sptc-lint -perf-baseline: stamped %s with %d budgeted function(s)\n", path, len(funcs))
	return nil
}
