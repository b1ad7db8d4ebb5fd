package cluster

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/spec"
)

// Timed cluster events: capacity incidents injected into a run at
// fixed offsets from the trace start. The grammar is
//
//	kind@time:key=value&key=value
//
// with entries separated by commas (or semicolons in contexts where a
// comma-free form is needed, e.g. raw JSON strings):
//
//	fail@36h:node=3, join@48h:node=3, drain@60h:node=0, resize@72h:node=1&mem=2048
//
// Times are Go durations ("36h", "90m", "12h30m") or bare seconds.
// Semantics (see the package doc and README "Chaos events"):
//
//	fail    node goes down instantly; every resident container is
//	        lost (in-flight executions count as failed loads), apps
//	        are re-placed on surviving nodes.
//	drain   node goes down gracefully; idle containers unload now,
//	        executing containers finish and then unload; apps are
//	        re-placed on surviving nodes.
//	join    node comes (back) up and accepts placements again.
//	resize  node capacity becomes mem MB (0 = infinite); shrinking
//	        below the resident set triggers pressure eviction.
//
// Equal-time events apply in spec order, before any reload,
// invocation or expiry at the same instant.

// EventKind discriminates the timed cluster events.
type EventKind uint8

const (
	// EventFail is an abrupt node loss.
	EventFail EventKind = iota
	// EventDrain is a graceful node removal (waits for executions).
	EventDrain
	// EventJoin returns a node to service.
	EventJoin
	// EventResize changes a node's memory capacity.
	EventResize
)

// String returns the grammar's kind token.
func (k EventKind) String() string {
	switch k {
	case EventFail:
		return "fail"
	case EventDrain:
		return "drain"
	case EventJoin:
		return "join"
	case EventResize:
		return "resize"
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Event is one timed cluster event.
type Event struct {
	// At is the event time in seconds from the trace start.
	At float64
	// Kind selects the incident type.
	Kind EventKind
	// Node is the target node index.
	Node int
	// MemMB is the new capacity for EventResize (<= 0 = infinite);
	// unused otherwise.
	MemMB float64
}

// String renders the canonical single-event form ("fail@36h:node=3").
func (ev Event) String() string {
	s := fmt.Sprintf("%s@%s:node=%d", ev.Kind, formatEventTime(ev.At), ev.Node)
	if ev.Kind == EventResize {
		// Plain decimal: an exponent's '+' would decode as a space.
		s += "&mem=" + strconv.FormatFloat(ev.MemMB, 'f', -1, 64)
	}
	return s
}

// EventsString renders a canonical comma-separated event list; empty
// input renders empty. ParseEvents(EventsString(evs)) reproduces evs.
func EventsString(evs []Event) string {
	if len(evs) == 0 {
		return ""
	}
	parts := make([]string, len(evs))
	for i, ev := range evs {
		parts[i] = ev.String()
	}
	return strings.Join(parts, ",")
}

// ParseEvents parses an event list. Entries split on commas or
// semicolons; whitespace around entries is ignored; an empty string
// parses to nil. Spec order is preserved — equal-time events apply in
// the order written.
func ParseEvents(s string) ([]Event, error) {
	var evs []Event
	for _, part := range strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == ';' }) {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		ev, err := parseEvent(part)
		if err != nil {
			return nil, err
		}
		evs = append(evs, ev)
	}
	return evs, nil
}

func parseEvent(s string) (Event, error) {
	head, params, _ := strings.Cut(s, ":")
	kindStr, timeStr, ok := strings.Cut(head, "@")
	if !ok {
		return Event{}, fmt.Errorf("cluster: event %q: want kind@time:node=N", s)
	}
	var ev Event
	switch strings.TrimSpace(kindStr) {
	case "fail":
		ev.Kind = EventFail
	case "drain":
		ev.Kind = EventDrain
	case "join":
		ev.Kind = EventJoin
	case "resize":
		ev.Kind = EventResize
	default:
		return Event{}, fmt.Errorf("cluster: event %q: unknown kind %q (fail, drain, join, resize)", s, kindStr)
	}
	at, err := parseEventTime(strings.TrimSpace(timeStr))
	if err != nil {
		return Event{}, fmt.Errorf("cluster: event %q: %w", s, err)
	}
	ev.At = at

	ev, err = spec.Build(params, func(p *spec.Params) (Event, error) {
		var err error
		if ev.Node, err = p.Int("node", -1); err != nil {
			return ev, err
		}
		if ev.Node < 0 {
			return ev, fmt.Errorf("missing node=N")
		}
		if ev.Kind == EventResize {
			if ev.MemMB, err = p.Float("mem", math.NaN()); err != nil {
				return ev, err
			}
			if math.IsNaN(ev.MemMB) {
				return ev, fmt.Errorf("resize needs mem=MB (0 = infinite)")
			}
			if math.IsInf(ev.MemMB, 0) {
				// +Inf would render as "+Inf", which a query reads as " Inf".
				return ev, fmt.Errorf("resize needs a finite mem=MB (0 = infinite), got %g", ev.MemMB)
			}
		}
		return ev, nil
	})
	if err != nil {
		return Event{}, fmt.Errorf("cluster: event %q: %w", s, err)
	}
	return ev, nil
}

// parseEventTime accepts a Go duration ("36h", "12h30m", "90.5s") or
// bare seconds ("3600"), returning seconds. Negative times are
// rejected.
func parseEventTime(s string) (float64, error) {
	var sec float64
	if d, err := time.ParseDuration(s); err == nil {
		sec = d.Seconds()
	} else if f, err := strconv.ParseFloat(s, 64); err == nil {
		sec = f
	} else {
		return 0, fmt.Errorf("time %q: want a duration (36h) or seconds", s)
	}
	if sec < 0 || math.IsNaN(sec) || math.IsInf(sec, 0) {
		return 0, fmt.Errorf("time %q: want a non-negative finite time", s)
	}
	return sec, nil
}

// formatEventTime renders seconds as the most compact duration form
// ("36h", "12h30m", "90.5s"); non-representable values fall back to
// bare seconds.
func formatEventTime(sec float64) string {
	ns := sec * float64(time.Second)
	if ns > float64(math.MaxInt64) || float64(time.Duration(ns)) != ns {
		return strconv.FormatFloat(sec, 'g', -1, 64)
	}
	s := time.Duration(ns).String()
	if strings.HasSuffix(s, "m0s") {
		s = s[:len(s)-2]
	}
	if strings.HasSuffix(s, "h0m") {
		s = s[:len(s)-2]
	}
	return s
}

// validateEvents holds programmatic events to the rules ParseEvents
// enforces, and checks their targets against the cluster shape.
func validateEvents(evs []Event, nodes int) error {
	for _, ev := range evs {
		switch {
		case ev.Kind > EventResize:
			return fmt.Errorf("cluster: event %s: unknown kind", ev)
		case ev.At < 0 || math.IsNaN(ev.At) || math.IsInf(ev.At, 0):
			return fmt.Errorf("cluster: event %s: want a non-negative finite time", ev)
		case ev.Node < 0 || ev.Node >= nodes:
			return fmt.Errorf("cluster: event %s: node %d out of range (cluster has %d nodes)", ev, ev.Node, nodes)
		case ev.Kind == EventResize && (math.IsNaN(ev.MemMB) || math.IsInf(ev.MemMB, 0)):
			return fmt.Errorf("cluster: event %s: resize needs a finite mem=MB (0 = infinite)", ev)
		}
	}
	return nil
}
