package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// knownAnnotation reports whether the annotation's verb and argument
// are in the documented grammar.
func knownAnnotation(ann *Annotation) bool {
	switch ann.Verb {
	case "orderinvariant":
		return ann.Arg == ""
	case "allow":
		return ann.Arg == "wallclock"
	}
	return false
}

// Analyzer is one named check. It mirrors the shape of
// golang.org/x/tools/go/analysis.Analyzer so the suite can migrate to
// the real multichecker wholesale if the dependency ever lands.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -run filters.
	Name string
	// Doc is a one-line summary of the contract enforced.
	Doc string
	// Run analyzes one package, reporting findings via pass.Reportf.
	Run func(pass *Pass) error
}

// Diagnostic is one finding, positioned in the loaded FileSet.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Notes indexes the package's wildlint annotations; analyzers
	// consult it for opt-outs and report the annotations of their
	// verbs that suppressed nothing.
	Notes *Notes

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// RunAnalyzers applies every analyzer to every package and returns
// the findings sorted by position (file, line, column).
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		notes := collectNotes(pkg.Fset, pkg.Files)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Notes:     notes,
				diags:     &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
		// A typo'd annotation would otherwise silently suppress
		// nothing; reject verbs outside the documented grammar.
		for _, ann := range notes.all {
			if !knownAnnotation(ann) {
				diags = append(diags, Diagnostic{
					Analyzer: "wildlint",
					Pos:      pkg.Fset.Position(ann.Pos),
					Message: fmt.Sprintf("unknown wildlint annotation %q; the grammar is "+
						"orderinvariant | allow wallclock (see internal/lint)",
						strings.TrimSpace(ann.Verb+" "+ann.Arg)),
				})
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// All returns the full wildlint suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Determinism}
}

// ByName resolves a comma-separable analyzer name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// walkStack traverses the file like ast.Inspect but hands the visitor
// the stack of enclosing nodes (outermost first, current node last).
func walkStack(root ast.Node, visit func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if !visit(n, stack) {
			// Still track the pop for this node.
			return true
		}
		return true
	})
}

// enclosingFuncs returns the function declarations and literals on
// the stack, innermost last.
func enclosingFuncs(stack []ast.Node) []ast.Node {
	var fns []ast.Node
	for _, n := range stack {
		switch n.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			fns = append(fns, n)
		}
	}
	return fns
}
