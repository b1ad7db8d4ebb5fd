// Package experiments regenerates every table and figure of the
// paper's evaluation: the workload characterization (Figures 1–8 and
// 12) from a calibrated synthetic population, the policy evaluation
// (Figures 14–19) as scenario grids run in one sweep, and the platform
// experiment (Figure 20) as a replay. Each Figure's series, tables and
// notes mirror what the paper plots; cmd/experiments renders them.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/stats"
)

// Series is one named curve of a figure.
type Series struct {
	Name   string
	Points []stats.Point
}

// Figure is a regenerated table or figure.
type Figure struct {
	ID    string // e.g. "figure-05a"
	Title string
	// XLabel / YLabel annotate the series' axes.
	XLabel, YLabel string
	Series         []Series
	// Table is optional tabular content (first row is the header).
	Table [][]string
	// Notes records headline scalar findings, each tagged with the
	// paper's corresponding claim where applicable.
	Notes []string
}

// AddNote appends a formatted note.
func (f *Figure) AddNote(format string, args ...any) {
	f.Notes = append(f.Notes, fmt.Sprintf(format, args...))
}

// Render writes a text rendering of the figure.
func (f *Figure) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", f.ID, f.Title)
	if len(f.Table) > 0 {
		widths := make([]int, len(f.Table[0]))
		for _, row := range f.Table {
			for i, cell := range row {
				if i < len(widths) && len(cell) > widths[i] {
					widths[i] = len(cell)
				}
			}
		}
		for r, row := range f.Table {
			var b strings.Builder
			for i, cell := range row {
				fmt.Fprintf(&b, "%-*s  ", widths[i], cell)
			}
			fmt.Fprintln(w, "  "+strings.TrimRight(b.String(), " "))
			if r == 0 {
				fmt.Fprintln(w, "  "+strings.Repeat("-", len(strings.TrimRight(b.String(), " "))))
			}
		}
	}
	for _, s := range f.Series {
		fmt.Fprintf(w, "  series %q (%s vs %s): %d points\n", s.Name, f.YLabel, f.XLabel, len(s.Points))
		if len(s.Points) > 0 {
			fmt.Fprintf(w, "    first=(%.4g, %.4g) mid=(%.4g, %.4g) last=(%.4g, %.4g)\n",
				s.Points[0].X, s.Points[0].Y,
				s.Points[len(s.Points)/2].X, s.Points[len(s.Points)/2].Y,
				s.Points[len(s.Points)-1].X, s.Points[len(s.Points)-1].Y)
		}
	}
	for _, n := range f.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// cdfPoints renders an ECDF of xs at n quantiles.
func cdfPoints(xs []float64, n int) []stats.Point {
	if len(xs) == 0 {
		return nil
	}
	return stats.NewECDF(xs).Points(n)
}
