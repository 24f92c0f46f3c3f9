package main

import (
	"go/ast"
	"strings"
)

// deferinloop flags defer statements inside loops in the hot-path packages.
// A defer in a loop body does not run at the end of the iteration — it
// accumulates until the enclosing function returns, which in a contraction
// loop over millions of non-zeros means an unbounded deferred-call stack
// and a hidden per-iteration allocation. Outside the hot packages the
// pattern is often fine (a retry loop closing response bodies), so the
// check is scoped to the kernels where any per-iteration overhead is a
// regression. A defer inside a function literal declared in the loop is
// clean: it runs when that literal returns, once per call.
var deferinloopAnalyzer = &Analyzer{
	Name: "deferinloop",
	Doc:  "defer inside a loop in a hot-path package (deferred calls pile up until function return)",
	Run:  runDeferinloop,
}

// hotPathPkgs are the kernel packages where per-iteration overhead is a
// regression: the contraction stages themselves plus their direct
// data-structure dependencies. Kept in sync with perfPackages (perf.go).
var hotPathPkgs = []string{
	"/internal/core", "/internal/hashtab", "/internal/sortx",
	"/internal/spa", "/internal/lnum", "/internal/blocksparse",
	"/internal/parallel", "/internal/coo",
}

func isHotPathPkg(path string) bool {
	for _, suf := range hotPathPkgs {
		if strings.HasSuffix(path, suf) {
			return true
		}
	}
	return false
}

func runDeferinloop(pkgs []*Package) []Diagnostic {
	var diags []Diagnostic
	for _, p := range pkgs {
		if !isHotPathPkg(p.Path) {
			continue
		}
		for _, fd := range funcDecls(p) {
			if fd.Body == nil {
				continue
			}
			walkDefers(p, fd.Body, 0, &diags)
		}
	}
	return diags
}

// walkDefers tracks loop depth within one function frame; entering a
// FuncLit resets the depth because its defers are scoped to the literal.
func walkDefers(p *Package, n ast.Node, depth int, diags *[]Diagnostic) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			if n.Body != nil {
				walkDefers(p, n.Body, depth+1, diags)
			}
			walkDeferHeaders(p, depth, diags, n.Init, n.Cond, n.Post)
			return false
		case *ast.RangeStmt:
			if n.Body != nil {
				walkDefers(p, n.Body, depth+1, diags)
			}
			return false
		case *ast.FuncLit:
			if n.Body != nil {
				walkDefers(p, n.Body, 0, diags)
			}
			return false
		case *ast.DeferStmt:
			if depth > 0 {
				*diags = append(*diags, Diagnostic{
					Pos:      p.Fset.Position(n.Pos()),
					Analyzer: "deferinloop",
					Message:  "defer inside a loop runs at function return, not per iteration; hoist it or wrap the body in a function",
				})
			}
		}
		return true
	})
}

// walkDeferHeaders keeps loop-header clauses at the surrounding depth (a
// defer cannot appear there, but a FuncLit in a condition can).
func walkDeferHeaders(p *Package, depth int, diags *[]Diagnostic, nodes ...ast.Node) {
	for _, n := range nodes {
		if n != nil {
			walkDefers(p, n, depth, diags)
		}
	}
}
