package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding at an exact source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one Sparta-specific check. Run sees every loaded package at
// once so cross-package checks (hotpanic's call graph) need no second pass.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(pkgs []*Package) []Diagnostic
}

// analyzers is the suite, in reporting order.
var analyzers = []*Analyzer{
	atomicmixAnalyzer,
	chunkloopAnalyzer,
	lnoverflowAnalyzer,
	hotpanicAnalyzer,
	bareerrAnalyzer,
	spanleakAnalyzer,
	ctxloopAnalyzer,
	deferinloopAnalyzer,
	atomicalignAnalyzer,
}

// ignoreDirective is the suppression marker: a comment of the form
//
//	//lint:ignore <analyzer> <reason>
//
// on the flagged line or the line directly above it silences that analyzer
// there. The reason is mandatory — an unexplained suppression is itself
// reported.
const ignoreDirective = "//lint:ignore"

type suppressKey struct {
	file     string
	line     int
	analyzer string
}

// collectSuppressions scans the comments of every file for ignore
// directives. Malformed directives (no analyzer, no reason, unknown
// analyzer) come back as diagnostics so they cannot silently rot.
func collectSuppressions(pkgs []*Package) (map[suppressKey]bool, []Diagnostic) {
	sup := map[suppressKey]bool{}
	var diags []Diagnostic
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, ignoreDirective) {
						continue
					}
					pos := p.Fset.Position(c.Pos())
					fields := strings.Fields(strings.TrimPrefix(c.Text, ignoreDirective))
					if len(fields) < 2 {
						diags = append(diags, Diagnostic{pos, "lint",
							"malformed //lint:ignore: want \"//lint:ignore <analyzer> <reason>\""})
						continue
					}
					if !known[fields[0]] {
						diags = append(diags, Diagnostic{pos, "lint",
							fmt.Sprintf("//lint:ignore names unknown analyzer %q", fields[0])})
						continue
					}
					sup[suppressKey{pos.Filename, pos.Line, fields[0]}] = true
				}
			}
		}
	}
	return sup, diags
}

// suppressed reports whether d carries an ignore directive on its own line
// or the line above.
func suppressed(sup map[suppressKey]bool, d Diagnostic) bool {
	return sup[suppressKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}] ||
		sup[suppressKey{d.Pos.Filename, d.Pos.Line - 1, d.Analyzer}]
}

// runSuite runs every analyzer over the loaded packages and returns the
// surviving diagnostics sorted by position.
func runSuite(pkgs []*Package) []Diagnostic {
	sup, diags := collectSuppressions(pkgs)
	for _, a := range analyzers {
		for _, d := range a.Run(pkgs) {
			if !suppressed(sup, d) {
				diags = append(diags, d)
			}
		}
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
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// inspect walks every file of a package, calling fn with each node; fn
// returning false prunes the subtree.
func inspect(p *Package, fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

// enclosingFuncs maps every node position range to its top-level function
// declaration name; used for per-function context checks.
func funcDecls(p *Package) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				out = append(out, fd)
			}
		}
	}
	return out
}
