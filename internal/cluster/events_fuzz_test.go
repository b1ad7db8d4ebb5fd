package cluster

import (
	"reflect"
	"testing"
)

// FuzzParseEvents: whatever ParseEvents accepts round-trips through
// its canonical form — EventsString parses back to the same events and
// renders the same string — and passes the run-time checks on a
// cluster large enough for its node targets. Nothing panics. The seed
// corpus under testdata/fuzz holds the grammar's documented forms and
// the shapes the run-time checks exist for: a negative node, a NaN
// time and an unknown kind.
func FuzzParseEvents(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		evs, err := ParseEvents(s)
		if err != nil {
			return
		}
		canon := EventsString(evs)
		again, err := ParseEvents(canon)
		if err != nil {
			t.Fatalf("%q parsed, but its canonical form %q does not: %v", s, canon, err)
		}
		if !reflect.DeepEqual(again, evs) {
			t.Fatalf("%q: canonical %q parses to %+v, want %+v", s, canon, again, evs)
		}
		if got := EventsString(again); got != canon {
			t.Fatalf("%q: canonical form is not a fixed point: %q then %q", s, canon, got)
		}
		nodes := 0
		for _, ev := range evs {
			nodes = max(nodes, ev.Node+1)
		}
		if err := validateEvents(evs, nodes); err != nil {
			t.Fatalf("%q parsed, but the run rejects it: %v", s, err)
		}
	})
}
