package lint

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// annotationPrefix introduces a wildlint directive comment. Like all
// Go directives it binds with no space after the slashes:
// "//wildlint:orderinvariant", "//wildlint:allow wallclock".
const annotationPrefix = "//wildlint:"

// Annotation is one parsed wildlint directive.
type Annotation struct {
	// Verb is the directive name ("orderinvariant", "allow").
	Verb string
	// Arg is the first argument ("wallclock"); empty for argument-less
	// verbs.
	Arg string
	// Pos is the comment's position.
	Pos token.Pos

	used bool
}

// Notes indexes a package's annotations by file and line so analyzers
// can match them to the construct on the same or the following line.
type Notes struct {
	byLine map[string]map[int][]*Annotation
	all    []*Annotation
}

func collectNotes(fset *token.FileSet, files []*ast.File) *Notes {
	n := &Notes{byLine: map[string]map[int][]*Annotation{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, annotationPrefix)
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				if len(fields) == 0 {
					continue
				}
				ann := &Annotation{Verb: fields[0], Pos: c.Pos()}
				if len(fields) > 1 {
					ann.Arg = fields[1]
				}
				pos := fset.Position(c.Pos())
				lines := n.byLine[pos.Filename]
				if lines == nil {
					lines = map[int][]*Annotation{}
					n.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], ann)
				n.all = append(n.all, ann)
			}
		}
	}
	return n
}

// At returns an annotation with the given verb and arg governing the
// construct at pos — on the same line (trailing comment) or the line
// directly above — marking it used. Nil when there is none.
func (n *Notes) At(fset *token.FileSet, pos token.Pos, verb, arg string) *Annotation {
	p := fset.Position(pos)
	for _, line := range []int{p.Line, p.Line - 1} {
		for _, ann := range n.byLine[p.Filename][line] {
			if ann.Verb == verb && ann.Arg == arg {
				ann.used = true
				return ann
			}
		}
	}
	return nil
}

// reportUnused reports every annotation with the given verb and arg
// that no check consumed — the "checked annotation" half of the
// contract: a stale opt-out is itself a finding.
func (n *Notes) reportUnused(pass *Pass, verb, arg string) {
	anns := append([]*Annotation(nil), n.all...)
	sort.Slice(anns, func(i, j int) bool { return anns[i].Pos < anns[j].Pos })
	for _, ann := range anns {
		if ann.used || ann.Verb != verb || ann.Arg != arg {
			continue
		}
		what := annotationPrefix + verb
		if arg != "" {
			what += " " + arg
		}
		pass.Reportf(ann.Pos, "unused wildlint annotation %s: nothing on the next line needs it", what)
	}
}
