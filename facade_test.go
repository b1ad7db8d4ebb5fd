package wild

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestFacadeIsCalled keeps the facade equal to its contract: every
// function wild.go exports must be called as wild.<Name> from some
// non-test file under cmd/ or examples/. A wrapper nothing calls is
// deleted, not kept for a test — tests reach the internal packages
// directly.
func TestFacadeIsCalled(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "wild.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	called := map[string]bool{}
	for _, root := range []string{"cmd", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == "wild" {
						called[sel.Sel.Name] = true
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	exported := 0
	for _, d := range facade.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Recv != nil || !fn.Name.IsExported() {
			continue
		}
		exported++
		if !called[fn.Name.Name] {
			t.Errorf("wild.%s is exported but no file under cmd/ or examples/ calls it", fn.Name.Name)
		}
	}
	if exported == 0 {
		t.Fatal("found no exported functions in wild.go")
	}
}
