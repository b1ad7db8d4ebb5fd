package scenario

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"unicode/utf8"
)

// FuzzParseScenario: whatever ParseScenario accepts, in either form,
// round-trips through both. Its canonical String parses back to the
// same value and renders the same string, and — where the fields are
// valid UTF-8, which JSON strings require — its JSON encoding parses
// back to the same value too. Nothing panics. The seed corpus under
// testdata/fuzz holds the text ↔ JSON gaps this oracle was written for:
// a JSON negative memory or worker count, a text NaN / Inf memory, a
// ';' in a JSON field, untrimmed JSON strings, and a ',' inside a JSON
// sink spec.
func FuzzParseScenario(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		sc, err := ParseScenario(s)
		if err != nil {
			return
		}
		canon := sc.String()
		again, err := ParseScenario(canon)
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
		fromJSON, err := ParseScenario(string(data))
		if err != nil {
			t.Fatalf("%q: JSON form %s does not parse: %v", s, data, err)
		}
		if !reflect.DeepEqual(fromJSON, sc) {
			t.Fatalf("%q: JSON form %s parses to %s, want %s", s, data, fields(fromJSON), fields(sc))
		}
	})
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
