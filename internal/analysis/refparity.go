package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// RefParityConfig describes where the opt/ref dual implementations live.
type RefParityConfig struct {
	// FastPath maps a package path to the identifiers that constitute its
	// fast-path state: incrementally maintained struct fields (by field
	// name) and package-level cache variables (pools, sync.Maps). Any
	// exported function consuming these must be switchable to a reference
	// implementation.
	FastPath map[string][]string
	// OwnerType, per package path, optionally names the struct type whose
	// constructors/cloners are exempt: a function returning the whole
	// state is not answering a query from cached state.
	OwnerType map[string]string
}

// DefaultRefParityConfig covers the two packages with fast paths:
// cluster's per-switch free counters and incrementally maintained comm
// shares, and costmodel's leaf-pair hops cache, schedule and plan memo
// (scheduleCache, and planIndex, its steps-identity index) and compiled
// leaf-aggregated schedules.
var DefaultRefParityConfig = RefParityConfig{
	FastPath: map[string][]string{
		"repro/internal/cluster":   {"switchFree", "leafShare"},
		"repro/internal/costmodel": {"pairCachePool", "scheduleCache", "planIndex", "leafSchedCache"},
	},
	OwnerType: map[string]string{
		"repro/internal/cluster": "State",
	},
}

// RefParity keeps the PR-2 equivalence proof total in every package that
// exposes SetReferenceMode:
//
//  1. the package must actually declare the referenceMode flag the switch
//     is supposed to toggle;
//  2. every exported function that consumes fast-path state (directly or
//     via an unexported helper) must either branch on the flag or call a
//     reference counterpart (a function named *Slow or *Ref), so no fast
//     path exists without a reference implementation to diff against;
//  3. every reference counterpart must be reachable from a
//     reference-mode-guarded branch — an orphaned *Slow/*Ref function
//     means the equivalence harness is no longer exercising it.
func RefParity(cfg RefParityConfig) *Analyzer {
	a := &Analyzer{
		Name: "refparity",
		Doc: "exported fast-path functions in SetReferenceMode packages " +
			"must have a registered, reachable reference counterpart",
	}
	a.Run = func(pass *Pass) { runRefParity(pass, cfg) }
	return a
}

const (
	switchFuncName = "SetReferenceMode"
	flagVarName    = "referenceMode"
	flagReadName   = "ReferenceMode"
)

func isCounterpartName(name string) bool {
	return strings.HasSuffix(name, "Slow") || strings.HasSuffix(name, "Ref")
}

type funcFacts struct {
	decl         *ast.FuncDecl
	exported     bool
	usesFastPath bool
	hasGuard     bool            // reads referenceMode / ReferenceMode()
	callsRefImpl bool            // calls a *Slow/*Ref function
	callees      map[string]bool // same-package unexported callees by name
}

func runRefParity(pass *Pass, cfg RefParityConfig) {
	fastIdents := make(map[string]bool)
	for _, id := range cfg.FastPath[pass.Path] {
		fastIdents[id] = true
	}
	declaresSwitch := false
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok &&
				fd.Recv == nil && fd.Name.Name == switchFuncName {
				declaresSwitch = true
			}
		}
	}
	if !declaresSwitch {
		if len(fastIdents) > 0 {
			pass.Reportf(pass.Files[0].Pos(),
				"package has configured fast-path state but does not declare %s: the reference/optimized switch is gone",
				switchFuncName)
		}
		return
	}
	if pass.Pkg.Scope().Lookup(flagVarName) == nil {
		pass.Reportf(pass.Files[0].Pos(),
			"%s is declared but there is no %s flag for it to toggle",
			switchFuncName, flagVarName)
		return
	}

	// Gather per-function facts and the set of calls made inside
	// reference-mode-guarded branches anywhere in the package.
	facts := make(map[string]*funcFacts)
	guardedCalls := make(map[string]bool)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ff := &funcFacts{
				decl:     fd,
				exported: fd.Name.IsExported(),
				callees:  make(map[string]bool),
			}
			// Fast-path state is consumed by READS; writes are the shared
			// maintenance both modes perform (adjustFree keeping the
			// counters correct is not a fast path — reading them instead
			// of rescanning is). Collect assignment-target positions so
			// the walk below can tell the two apart.
			writePos := make(map[token.Pos]bool)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						markIdentPositions(lhs, writePos)
					}
				case *ast.IncDecStmt:
					markIdentPositions(n.X, writePos)
				}
				return true
			})
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if fastIdents[n.Name] && samePackageObj(pass, n) && !writePos[n.Pos()] {
						ff.usesFastPath = true
					}
					if n.Name == flagVarName {
						ff.hasGuard = true
					}
				case *ast.CallExpr:
					name := calleeName(n)
					if name == flagReadName {
						ff.hasGuard = true
					}
					if isCounterpartName(name) {
						ff.callsRefImpl = true
					}
					if fn := calleeFunc(pass.Info, n); fn != nil &&
						fn.Pkg() == pass.Pkg && !fn.Exported() {
						ff.callees[fn.Name()] = true
					}
				case *ast.IfStmt:
					if mentionsFlag(n.Cond) {
						collectCallNames(n.Body, guardedCalls)
						if n.Else != nil {
							collectCallNames(n.Else, guardedCalls)
						}
					}
				}
				return true
			})
			facts[fd.Name.Name] = ff
		}
	}

	ownerType := cfg.OwnerType[pass.Path]
	for _, ff := range facts {
		name := ff.decl.Name.Name
		if !ff.exported || isCounterpartName(name) ||
			name == switchFuncName || name == flagReadName {
			continue
		}
		if ownerType != "" && returnsOwner(pass, ff.decl, ownerType) {
			continue // constructor/cloner hands back the whole state
		}
		uses := ff.usesFastPath
		for callee := range ff.callees {
			if cf, ok := facts[callee]; ok && cf.usesFastPath {
				uses = true
			}
		}
		if uses && !ff.hasGuard && !ff.callsRefImpl {
			pass.Reportf(ff.decl.Name.Pos(),
				"%s consumes fast-path state but neither branches on %s nor calls a *Slow/*Ref counterpart: the opt/ref equivalence proof no longer covers it",
				name, flagVarName)
		}
	}

	for _, ff := range facts {
		name := ff.decl.Name.Name
		if !isCounterpartName(name) {
			continue
		}
		if !guardedCalls[name] {
			pass.Reportf(ff.decl.Name.Pos(),
				"reference counterpart %s is never called from a %s-guarded branch: reference mode no longer exercises it",
				name, flagVarName)
		}
	}
}

// markIdentPositions records the positions of every identifier under
// expr (an assignment target, including its index expressions — all
// maintenance context).
func markIdentPositions(expr ast.Expr, into map[token.Pos]bool) {
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			into[id.Pos()] = true
		}
		return true
	})
}

// samePackageObj reports whether the identifier resolves to an object
// declared in the package under analysis (as opposed to an import).
func samePackageObj(pass *Pass, id *ast.Ident) bool {
	obj := pass.Info.Uses[id]
	if obj == nil {
		obj = pass.Info.Defs[id]
	}
	return obj != nil && obj.Pkg() == pass.Pkg
}

// mentionsFlag reports whether the condition reads the reference-mode
// flag (referenceMode.Load(), !referenceMode.Load(), ReferenceMode()).
func mentionsFlag(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok &&
			(id.Name == flagVarName || id.Name == flagReadName) {
			found = true
		}
		return !found
	})
	return found
}

// collectCallNames records the bare names of all calls under n.
func collectCallNames(n ast.Node, into map[string]bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			if name := calleeName(call); name != "" {
				into[name] = true
			}
		}
		return true
	})
}

// returnsOwner reports whether the function's results include the owner
// struct type (by name, possibly behind a pointer).
func returnsOwner(pass *Pass, fd *ast.FuncDecl, owner string) bool {
	if fd.Type.Results == nil {
		return false
	}
	for _, field := range fd.Type.Results.List {
		tv, ok := pass.Info.Types[field.Type]
		if !ok {
			continue
		}
		if n := namedType(tv.Type); n != nil && n.Obj().Name() == owner &&
			n.Obj().Pkg() == pass.Pkg {
			return true
		}
	}
	return false
}
