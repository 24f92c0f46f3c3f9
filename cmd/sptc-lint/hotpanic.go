package main

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// hotpanic keeps the contraction hot path panic-free: errors inside stage
// ②–④ code must flow out through the Report/error plumbing, because a panic
// inside a parallel.For worker takes the whole process down with a goroutine
// dump instead of a diagnosable error. The analyzer builds a static call
// graph over the module, roots it at the exported API of the hot packages
// (internal/core, internal/hashtab), and flags every panic call in a hot
// package that is reachable from those roots. Assertions are exempt by
// construction — invariant.Assert panics live in internal/invariant, which
// is not a hot package, and exist only under -tags assert anyway.
var hotpanicAnalyzer = &Analyzer{
	Name: "hotpanic",
	Doc:  "panic reachable from the contraction hot path (internal/core, internal/hashtab)",
	Run:  runHotpanic,
}

// hotPkgSuffixes marks the hot packages by import-path suffix, so the
// fixture packages of the analyzer tests can stand in for the real ones.
var hotPkgSuffixes = []string{"internal/core", "internal/hashtab"}

func isHotPkg(path string) bool {
	for _, s := range hotPkgSuffixes {
		if strings.HasSuffix(path, s) {
			return true
		}
	}
	return false
}

func runHotpanic(pkgs []*Package) []Diagnostic {
	// Function universe: every declared function/method in the loaded
	// packages, with its body and defining package.
	type fnInfo struct {
		pkg  *Package
		decl *ast.FuncDecl
	}
	fns := map[*types.Func]fnInfo{}
	for _, p := range pkgs {
		for _, fd := range funcDecls(p) {
			if obj, ok := p.Info.Defs[fd.Name].(*types.Func); ok && fd.Body != nil {
				fns[obj] = fnInfo{p, fd}
			}
		}
	}

	// Static call edges + direct panic sites per function. Calls through
	// interfaces or function values are invisible to this resolution, which
	// is why the roots below include every exported function and method of
	// the hot packages (e.g. the HtYFlat and HtAFlat methods), not just Contract.
	edges := map[*types.Func][]*types.Func{}
	panics := map[*types.Func][]Diagnostic{}
	for obj, fi := range fns {
		p := fi.pkg
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				if b, ok := p.Info.Uses[fun].(*types.Builtin); ok && b.Name() == "panic" {
					if isHotPkg(p.Path) {
						panics[obj] = append(panics[obj], Diagnostic{
							Pos:      p.Fset.Position(call.Pos()),
							Analyzer: "hotpanic",
						})
					}
					return true
				}
				if callee, ok := p.Info.Uses[fun].(*types.Func); ok {
					edges[obj] = append(edges[obj], callee)
				}
			case *ast.SelectorExpr:
				if callee, ok := p.Info.Uses[fun.Sel].(*types.Func); ok {
					edges[obj] = append(edges[obj], callee)
				}
			}
			return true
		})
	}

	// Roots: the exported API of the hot packages.
	var queue []*types.Func
	reach := map[*types.Func]bool{}
	rootName := map[*types.Func]string{}
	for obj, fi := range fns {
		if isHotPkg(fi.pkg.Path) && obj.Exported() {
			reach[obj] = true
			rootName[obj] = obj.Name()
			queue = append(queue, obj)
		}
	}
	via := map[*types.Func]*types.Func{} // callee -> root it was first reached from
	for _, r := range queue {
		via[r] = r
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, callee := range edges[cur] {
			if !reach[callee] {
				reach[callee] = true
				via[callee] = via[cur]
				queue = append(queue, callee)
			}
		}
	}

	var diags []Diagnostic
	for obj, sites := range panics {
		if !reach[obj] {
			continue
		}
		root := "exported API"
		if r := via[obj]; r != nil {
			root = r.FullName()
		}
		for _, d := range sites {
			d.Message = fmt.Sprintf(
				"panic in %s is reachable from the contraction hot path (via %s); report errors through the Report/error plumbing instead",
				obj.Name(), root)
			diags = append(diags, d)
		}
	}
	return diags
}
