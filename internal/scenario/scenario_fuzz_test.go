package scenario

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"unicode/utf8"
)

// FuzzParseGrid: whatever ParseGrid accepts, in either form, expands to
// cells that round-trip through both forms. A 1-cell grid (no axes, no
// extra cells) checks its Base; any other grid checks every cell of
// Scenarios(). A cell's canonical String parses back to the same value
// and renders the same string, and — where the fields are valid UTF-8,
// which JSON strings require — its JSON encoding parses back to the
// same value too. Nothing panics. The seed corpus under testdata/fuzz
// holds the text ↔ JSON gaps this oracle was written for: a JSON
// negative memory or worker count, a text NaN / Inf memory, a ';' in a
// JSON field, untrimmed JSON strings, a ',' inside a JSON sink spec,
// and trailing bytes after a JSON value (rejected).
func FuzzParseGrid(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		g, err := ParseGrid(s)
		if err != nil {
			return
		}
		if len(g.Axes) == 0 && len(g.Cells) == 0 {
			requireCellRoundTrip(t, s, g.Base)
			return
		}
		size := 1
		for _, ax := range g.Axes {
			if size *= len(ax.Values); size > 64 {
				return // a cartesian product this large tests nothing new
			}
		}
		cells, err := g.Scenarios()
		if err != nil {
			return
		}
		for _, sc := range cells {
			requireCellRoundTrip(t, s, sc)
		}
	})
}

// requireCellRoundTrip fails unless sc, parsed from s, survives its
// String and its JSON form as a 1-cell grid.
func requireCellRoundTrip(t *testing.T, s string, sc Scenario) {
	t.Helper()
	canon := sc.String()
	again, err := parseCell(canon)
	if err != nil {
		t.Fatalf("%q parsed, but its String %q does not: %v", s, canon, err)
	}
	if !reflect.DeepEqual(again, sc) {
		t.Fatalf("%q: String %q parses to %s, want %s", s, canon, fields(again), fields(sc))
	}
	if got := again.String(); got != canon {
		t.Fatalf("%q: String is not a fixed point: %q then %q", s, canon, got)
	}
	if !utf8.ValidString(canon) {
		return
	}
	data, err := json.Marshal(sc)
	if err != nil {
		t.Fatalf("%q parsed, but has no JSON form: %v", s, err)
	}
	fromJSON, err := parseCell(string(data))
	if err != nil {
		t.Fatalf("%q: JSON form %s does not parse: %v", s, data, err)
	}
	if !reflect.DeepEqual(fromJSON, sc) {
		t.Fatalf("%q: JSON form %s parses to %s, want %s", s, data, fields(fromJSON), fields(sc))
	}
}

// fields renders every field of sc; %v would print the String under
// test instead.
func fields(sc Scenario) string {
	type plain Scenario
	s := fmt.Sprintf("%+v", plain(sc))
	if sc.Cluster != nil {
		s += fmt.Sprintf(" cluster=%+v", *sc.Cluster)
	}
	return s
}
