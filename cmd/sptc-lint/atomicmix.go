package main

import (
	"fmt"
	"go/ast"
	"go/types"
)

// atomicmix flags struct fields that one part of a package accesses through
// sync/atomic and another part reads or writes with plain loads/stores — the
// hazard of any lock-free build that claims slot keys with
// CompareAndSwapUint64 while later phases touch the same field. Plain access
// is only sound after a happens-before barrier the compiler cannot see; every
// such site must either use the atomic API too (an atomic load of an aligned
// word compiles to a plain load on amd64/arm64; an atomic store does not — it
// is an XCHG on amd64) or carry a //lint:ignore atomicmix justification
// naming the barrier.
var atomicmixAnalyzer = &Analyzer{
	Name: "atomicmix",
	Doc:  "struct fields accessed both atomically (sync/atomic) and with plain loads/stores",
	Run:  runAtomicmix,
}

func runAtomicmix(pkgs []*Package) []Diagnostic {
	var diags []Diagnostic
	for _, p := range pkgs {
		diags = append(diags, atomicmixPackage(p)...)
	}
	return diags
}

func atomicmixPackage(p *Package) []Diagnostic {
	// Pass 1: fields whose address is handed to a sync/atomic function.
	atomicFields := map[*types.Var]string{} // field -> atomic func name
	atomicArgSels := map[*ast.SelectorExpr]bool{}
	inspect(p, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, ok := atomicCallee(p, call)
		if !ok {
			return true
		}
		for _, arg := range call.Args {
			un, ok := arg.(*ast.UnaryExpr)
			if !ok || un.Op.String() != "&" {
				continue
			}
			sel, ok := un.X.(*ast.SelectorExpr)
			if !ok {
				continue
			}
			if fv := fieldVar(p, sel); fv != nil {
				atomicFields[fv] = name
				atomicArgSels[sel] = true
			}
		}
		return true
	})
	if len(atomicFields) == 0 {
		return nil
	}

	// Pass 2: every other selector resolving to one of those fields is a
	// plain access.
	var diags []Diagnostic
	inspect(p, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || atomicArgSels[sel] {
			return true
		}
		fv := fieldVar(p, sel)
		if fv == nil {
			return true
		}
		aname, mixed := atomicFields[fv]
		if !mixed {
			return true
		}
		diags = append(diags, Diagnostic{
			Pos:      p.Fset.Position(sel.Sel.Pos()),
			Analyzer: "atomicmix",
			Message: fmt.Sprintf(
				"field %s.%s is accessed with sync/atomic.%s elsewhere in this package but plainly here; use the atomic API or justify the barrier with //lint:ignore",
				fieldOwner(fv), fv.Name(), aname),
		})
		return true
	})
	return diags
}

// atomicCallee returns the function name when call is sync/atomic.F(...).
func atomicCallee(p *Package, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := p.Info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != "sync/atomic" {
		return "", false
	}
	return sel.Sel.Name, true
}

// fieldVar resolves a selector to the struct field it names, nil otherwise.
func fieldVar(p *Package, sel *ast.SelectorExpr) *types.Var {
	s, ok := p.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	return s.Obj().(*types.Var)
}

// fieldOwner names the struct type a field belongs to, best effort.
func fieldOwner(fv *types.Var) string {
	// The field's parent scope is not the named type; recover the owner from
	// the position-independent string form instead.
	if fv.Pkg() != nil {
		for _, name := range fv.Pkg().Scope().Names() {
			tn, ok := fv.Pkg().Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i) == fv {
					return tn.Name()
				}
			}
		}
	}
	return "?"
}
