package scenario

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// parseCell parses s with ParseGrid and returns the base of the 1-cell
// grid a scenario spec is: no axes and no extra cells.
func parseCell(s string) (Scenario, error) {
	g, err := ParseGrid(s)
	if err != nil {
		return Scenario{}, err
	}
	if len(g.Axes) != 0 || len(g.Cells) != 0 {
		return Scenario{}, fmt.Errorf("%q is a grid of %d axes and %d cells, not one scenario", s, len(g.Axes), len(g.Cells))
	}
	return g.Base, nil
}

// TestScenarioRoundTrip pins the codec contract: parse → String →
// parse is the identity, and String is canonical (two equal scenarios
// render the same string).
func TestScenarioRoundTrip(t *testing.T) {
	specs := []string{
		"source=gen:apps=400&seed=7; policy=hybrid",
		"source=csv:trace/invocations.csv; policy=fixed?ka=20m",
		"source=gen:apps=100; policy=hybrid?cv=2&range=4h; sinks=coldstart,waste",
		"source=gen:apps=50; policy=nounload; shard=1/4; exectime=on",
		"source=gen:apps=50; policy=fixed?ka=10m; shard=*/3",
		"source=shard:1/4 of csv:big.csv; policy=hybrid",
		"source=gen:apps=80; policy=hybrid; cluster.nodes=8; cluster.mem=4096; cluster.place=binpack",
		"source=gen:apps=80; policy=hybrid; cluster.nodes=2; cluster.memcsv=mem.csv; sinks=coldstart?q=50:75:99,attribution",
		"source=gen:apps=80; policy=hybrid; cluster.nodes=4; cluster.mem=2048; cluster.events=fail@36h:node=3,join@48h:node=3,drain@60h:node=0,resize@72h:node=1&mem=2048",
		"source=gen:apps=20&mode=ramp&rps0=10&rps1=20&step=5; policy=hybrid",
		"source=gen:apps=20&mode=burst&rps0=0.5&rps1=10&period=5&burst=2; policy=fixed?ka=10m",
		"policy=hybrid", // sourceless base (fixed-trace runs)
		"",
	}
	for _, s := range specs {
		sc, err := parseCell(s)
		if err != nil {
			t.Fatalf("parseCell(%q): %v", s, err)
		}
		canon := sc.String()
		sc2, err := parseCell(canon)
		if err != nil {
			t.Fatalf("parseCell(String(%q) = %q): %v", s, canon, err)
		}
		if !reflect.DeepEqual(sc, sc2) {
			t.Errorf("round trip of %q: %+v != %+v (via %q)", s, sc, sc2, canon)
		}
		if canon2 := sc2.String(); canon2 != canon {
			t.Errorf("String not canonical for %q: %q then %q", s, canon, canon2)
		}
	}
}

// TestScenarioTextJSONAgree pins that the two encodings decode to the
// same value, and that the marshaled JSON form parses back.
func TestScenarioTextJSONAgree(t *testing.T) {
	cases := []struct{ text, jsonSpec string }{
		{
			"source=gen:apps=400&seed=7; policy=hybrid?cv=2",
			`{"source": "gen:apps=400&seed=7", "policy": "hybrid?cv=2"}`,
		},
		{
			"source=csv:inv.csv; policy=fixed?ka=10m; cluster.nodes=8; cluster.mem=4096; cluster.place=binpack; sinks=coldstart,waste; shard=0/2; exectime=on",
			`{"source": "csv:inv.csv", "policy": "fixed?ka=10m",
			  "cluster": {"nodes": 8, "mem": 4096, "place": "binpack"},
			  "sinks": ["coldstart", "waste"], "shard": "0/2",
			  "exectime": true}`,
		},
		{
			// JSON cluster section without nodes normalizes to 1 node,
			// like the text grammar.
			"source=gen:apps=10; policy=hybrid; cluster.mem=2048",
			`{"source": "gen:apps=10", "policy": "hybrid", "cluster": {"mem": 2048}}`,
		},
		{
			// JSON strings are trimmed and empty sinks dropped, as the
			// text grammar's field split does.
			"policy=hybrid; sinks=coldstart?q=50:75, waste",
			`{"policy": " hybrid ", "sinks": ["coldstart?q=50:75", "", " waste "]}`,
		},
	}
	for _, c := range cases {
		fromText, err := parseCell(c.text)
		if err != nil {
			t.Fatalf("text %q: %v", c.text, err)
		}
		fromJSON, err := parseCell(c.jsonSpec)
		if err != nil {
			t.Fatalf("json %q: %v", c.jsonSpec, err)
		}
		if !reflect.DeepEqual(fromText, fromJSON) {
			t.Errorf("text %q parsed %+v, json parsed %+v", c.text, fromText, fromJSON)
		}
		data, err := json.Marshal(fromText)
		if err != nil {
			t.Fatal(err)
		}
		reparsed, err := parseCell(string(data))
		if err != nil {
			t.Fatalf("reparse of %s: %v", data, err)
		}
		if !reflect.DeepEqual(fromText, reparsed) {
			t.Errorf("marshal/parse of %q: %+v != %+v", c.text, fromText, reparsed)
		}
	}
}

// TestScenarioParseErrors pins the fail-fast grammar: unknown fields,
// malformed values and unknown component names are errors that name
// the offender.
func TestScenarioParseErrors(t *testing.T) {
	cases := []struct{ spec, wantSub string }{
		{"source=gen:apps=10; polcy=hybrid", `unknown field "polcy"`},
		{"cluster.nods=8", `unknown field "cluster.nods"`},
		{"policy=hybrid; policy=fixed", `duplicate field "policy"`},
		{"shard", "want key=value"},
		{"cluster.nodes=zero", "cluster.nodes"},
		{"cluster.nodes=-2", "cluster.nodes"},
		{"cluster.mem=-5", "cluster.mem"},
		{"shard=4", "want i/n or */n"},
		{"shard=5/4", "want i/n or */n"},
		{"shard=*/0", "want i/n or */n"},
		{"exectime=maybe", "invalid boolean"},
		{"seed=9", `unknown field "seed"`},
		{`{"seed": 9}`, `unknown field "seed"`},
		{`{"source": "gen:", "polcy": "hybrid"}`, "polcy"},
		{`{"cluster": {"nodes": -1}}`, "cluster.nodes"},
		{"cluster.nodes=2; cluster.events=boom@1h:node=0", "cluster.events"},
		{"cluster.nodes=2; cluster.events=fail@1h", "cluster.events"},
		{`{"cluster": {"nodes": 2, "events": "fail@-1h:node=0"}}`, "cluster.events"},
		// The JSON form is held to the text form's rules (normalize
		// validates both), and neither takes what String cannot render.
		{`{"cluster": {"mem": -5}}`, "cluster.mem"},
		{"cluster.mem=NaN", "cluster.mem"},
		{"cluster.mem=Inf", "cluster.mem"},
		{`{"source": "csv:a;b"}`, "separates fields"},
		{`{"sinks": ["coldstart?q=50,75"]}`, "list quantiles with ':'"},
		// Bytes after the JSON value are an error, not ignored.
		{`{}0`, "after top-level value"},
	}
	for _, c := range cases {
		_, err := parseCell(c.spec)
		if err == nil {
			t.Errorf("spec %q: no error", c.spec)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("spec %q: error %q missing %q", c.spec, err, c.wantSub)
		}
	}
}

// TestSourceSpecErrors pins the source registry's error surface.
func TestSourceSpecErrors(t *testing.T) {
	cases := []struct{ spec, wantSub string }{
		{"cvs:path.csv", `unknown source "cvs"`},
		{"csv:", "want csv:path"},
		{"gen:apps=ten", "parameter apps"},
		{"gen:apps=10&foo=1", "unknown parameters [foo]"},
		{"gen:apps=0&days=1", "parameter apps"},
		{"gen:apps=20&days=0", "parameter days"},
		{"gen:apps=20&maxrate=0", "parameter maxrate"},
		{"gen:apps=20&maxevents=0", "parameter maxevents"},
		{"shard:1/4", "want shard:i/n of"},
		{"shard:4/4 of gen:apps=10", "invalid shard"},
		{"shard:0/2 of cvs:x", `unknown source "cvs"`},
	}
	for _, c := range cases {
		_, err := NewSource(c.spec)
		if err == nil {
			t.Errorf("source %q: no error", c.spec)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("source %q: error %q missing %q", c.spec, err, c.wantSub)
		}
	}
}

// TestSinkSpecErrors pins the sink registry's error surface.
func TestSinkSpecErrors(t *testing.T) {
	cases := []struct{ spec, wantSub string }{
		{"coldstarts", `unknown sink "coldstarts"`},
		{"coldstart?quant=75", "unknown parameters [quant]"},
		{"coldstart?q=101", "out of [0, 100]"},
		{"coldstart?q=NaN", "parameter q: NaN"},
		{"coldstart?q=50:nan", "parameter q: NaN"},
		{"waste?x=1", "unknown parameters [x]"},
	}
	for _, c := range cases {
		_, err := NewSink(c.spec)
		if err == nil {
			t.Errorf("sink %q: no error", c.spec)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("sink %q: error %q missing %q", c.spec, err, c.wantSub)
		}
	}
}

// TestSinkMergeRejectsMismatch pins that only same-spec sinks merge.
func TestSinkMergeRejectsMismatch(t *testing.T) {
	cold, err := NewSink("coldstart")
	if err != nil {
		t.Fatal(err)
	}
	waste, err := NewSink("waste")
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.Merge(waste); err == nil {
		t.Fatal("merging waste into coldstart did not error")
	}
	coldQ, err := NewSink("coldstart?q=99")
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.Merge(coldQ); err == nil {
		t.Fatal("merging coldstart?q=99 into coldstart did not error")
	}
}

// TestGenSourceSpecCanonical pins that a generator factory's Spec()
// round-trips to an equivalent factory (the sweep engine keys source
// sharing on it).
func TestGenSourceSpecCanonical(t *testing.T) {
	f, err := NewSource("gen:apps=40&days=0.5&seed=9&maxrate=500&maxevents=2000")
	if err != nil {
		t.Fatal(err)
	}
	f2, err := NewSource(f.Spec())
	if err != nil {
		t.Fatalf("re-parsing canonical spec %q: %v", f.Spec(), err)
	}
	if f.Spec() != f2.Spec() {
		t.Fatalf("canonical spec not stable: %q then %q", f.Spec(), f2.Spec())
	}
}

// TestLabels pins the varying-assignment labeling the reports use.
func TestLabels(t *testing.T) {
	g, err := ParseGrid("source=gen:apps=10; policy=[fixed?ka=10m,hybrid]; cluster.nodes=2; cluster.mem=[0,1024]")
	if err != nil {
		t.Fatal(err)
	}
	cells, err := g.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	labels := Labels(cells)
	want := []string{
		"policy=fixed?ka=10m",
		"policy=fixed?ka=10m; cluster.mem=1024",
		"policy=hybrid",
		"policy=hybrid; cluster.mem=1024",
	}
	if !reflect.DeepEqual(labels, want) {
		t.Fatalf("labels = %q, want %q", labels, want)
	}
}

// TestClusterEventsCodec pins the chaos-event field's codec corners:
// an empty list is identical to an absent key (no Cluster section
// materializes), the JSON form accepts ';' separators (since ';'
// separates text-grammar fields), and both normalize to the canonical
// comma-separated form.
func TestClusterEventsCodec(t *testing.T) {
	empty, err := parseCell("policy=hybrid; cluster.events=")
	if err != nil {
		t.Fatal(err)
	}
	absent, err := parseCell("policy=hybrid")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(empty, absent) {
		t.Errorf("empty cluster.events materialized state: %+v != %+v", empty, absent)
	}
	if empty.Cluster != nil {
		t.Errorf("empty cluster.events materialized a Cluster section: %+v", empty.Cluster)
	}

	fromJSON, err := parseCell(
		`{"policy": "hybrid", "cluster": {"nodes": 2, "events": "fail@36h:node=1; join@48h:node=1"}}`)
	if err != nil {
		t.Fatal(err)
	}
	const canon = "fail@36h:node=1,join@48h:node=1"
	if fromJSON.Cluster == nil || fromJSON.Cluster.Events != canon {
		t.Fatalf("JSON ';' events normalized to %+v, want %q", fromJSON.Cluster, canon)
	}
	fromText, err := parseCell("policy=hybrid; cluster.nodes=2; cluster.events=" + canon)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromJSON, fromText) {
		t.Errorf("JSON form %+v != text form %+v", fromJSON, fromText)
	}
	wantStr := "policy=hybrid; cluster.nodes=2; cluster.events=" + canon
	if got := fromJSON.String(); got != wantStr {
		t.Errorf("String() = %q, want %q", got, wantStr)
	}
}

// TestShapedGenSpecCanonical pins that shaped generator specs survive
// the factory's Spec() canonicalization, including default elision
// (slot=1, period=10, burst=1 are defaults and must not be emitted).
func TestShapedGenSpecCanonical(t *testing.T) {
	cases := []struct{ in, want string }{
		{
			"gen:apps=20&mode=ramp&rps0=10&rps1=20&step=5&slot=1",
			"gen:apps=20&seed=42&mode=ramp&rps0=10&rps1=20&step=5",
		},
		{
			"gen:apps=20&mode=burst&rps0=0.5&rps1=10&period=10&burst=1",
			"gen:apps=20&seed=42&mode=burst&rps0=0.5&rps1=10",
		},
		{
			"gen:apps=20&mode=burst&rps1=10&period=5&burst=2",
			"gen:apps=20&seed=42&mode=burst&rps1=10&period=5&burst=2",
		},
	}
	for _, c := range cases {
		f, err := NewSource(c.in)
		if err != nil {
			t.Fatalf("NewSource(%q): %v", c.in, err)
		}
		spec := f.Spec()
		if spec != c.want {
			t.Errorf("Spec(%q) = %q, want %q", c.in, spec, c.want)
		}
		f2, err := NewSource(spec)
		if err != nil {
			t.Fatalf("re-parsing canonical spec %q: %v", spec, err)
		}
		if f2.Spec() != spec {
			t.Errorf("canonical spec not stable: %q then %q", spec, f2.Spec())
		}
	}
	// Shaped-parameter validation surfaces through the source registry.
	for _, bad := range []struct{ spec, wantSub string }{
		{"gen:apps=10&mode=spike", "unknown Mode"},
		{"gen:apps=10&rps0=5", "without Mode"},
		{"gen:apps=10&mode=ramp&rps0=5&rps1=1", "RPS0 <= RPS1"},
		{"gen:apps=3&mode=ramp&rps0=NaN&rps1=2&step=1", "parameter rps0: NaN"},
	} {
		if _, err := NewSource(bad.spec); err == nil || !strings.Contains(err.Error(), bad.wantSub) {
			t.Errorf("NewSource(%q) = %v, want error containing %q", bad.spec, err, bad.wantSub)
		}
	}
}
