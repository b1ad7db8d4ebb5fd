package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// deterministicPathPrefixes are the packages whose results are pinned
// bit-for-bit by the golden suites: any iteration-order-sensitive
// accumulation here silently breaks reproducibility.
var deterministicPathPrefixes = []string{
	"repro/internal/sim",
	"repro/internal/cluster",
	"repro/internal/metrics",
	"repro/internal/scenario",
}

func inDeterministicPath(pkgPath string) bool {
	for _, p := range deterministicPathPrefixes {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}

// Determinism enforces the bit-identical-results contract: no map
// iteration in the deterministic result path (opt-out:
// //wildlint:orderinvariant on provably order-invariant folds), and
// no wall-clock or global-math/rand reads anywhere outside code
// annotated //wildlint:allow wallclock.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "flag map iteration in the deterministic result path and unannotated wall-clock/global-rand reads",
	Run:  runDeterminism,
}

// wallClockFuncs are the stdlib functions that read the runtime's
// wall clock or its process-global random state.
func isWallClockFunc(fn *types.Func) (label string, ok bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return "", false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() != nil {
		return "", false
	}
	switch pkg.Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			return "time." + fn.Name(), true
		}
	case "math/rand", "math/rand/v2":
		switch fn.Name() {
		// Constructors of explicitly seeded generators are the
		// deterministic alternative, not the problem.
		case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
			return "", false
		}
		return pkg.Path() + "." + fn.Name(), true
	}
	return "", false
}

func runDeterminism(pass *Pass) error {
	checkMaps := inDeterministicPath(pass.Pkg.Path())
	for _, f := range pass.Files {
		walkStack(f, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if !checkMaps {
					return true
				}
				t := pass.TypesInfo.Types[n.X].Type
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				if ann := pass.Notes.At(pass.Fset, n.Pos(), "orderinvariant", ""); ann != nil {
					return true
				}
				pass.Reportf(n.Pos(), "range over map %s in the deterministic result path: iteration order is randomized per run; iterate sorted keys, or mark a provably order-invariant fold //wildlint:orderinvariant", t.String())
			case *ast.Ident:
				fn, _ := pass.TypesInfo.Uses[n].(*types.Func)
				if fn == nil {
					return true
				}
				label, bad := isWallClockFunc(fn)
				if !bad {
					return true
				}
				if wallClockAllowed(pass, n, stack) {
					return true
				}
				pass.Reportf(n.Pos(), "%s is wall-clock/global-rand state: results must depend only on the trace and the seed; annotate //wildlint:allow wallclock on the statement or enclosing function if this is intentionally wall-clock code", label)
			}
			return true
		})
	}
	pass.Notes.reportUnused(pass, "orderinvariant", "")
	pass.Notes.reportUnused(pass, "allow", "wallclock")
	return nil
}

// wallClockAllowed reports whether the use at n is governed by an
// //wildlint:allow wallclock annotation — on its own line, the line
// above, or any enclosing function declaration or literal.
func wallClockAllowed(pass *Pass, n ast.Node, stack []ast.Node) bool {
	if ann := pass.Notes.At(pass.Fset, n.Pos(), "allow", "wallclock"); ann != nil {
		return true
	}
	for _, fn := range enclosingFuncs(stack) {
		pos := fn.Pos()
		if fd, ok := fn.(*ast.FuncDecl); ok && fd.Doc != nil {
			// The annotation is conventionally the last line of the
			// doc comment; match anywhere on the decl's doc lines.
			for _, c := range fd.Doc.List {
				if ann := pass.Notes.At(pass.Fset, c.Pos(), "allow", "wallclock"); ann != nil {
					return true
				}
			}
		}
		if ann := pass.Notes.At(pass.Fset, pos, "allow", "wallclock"); ann != nil {
			return true
		}
	}
	return false
}
