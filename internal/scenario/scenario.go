// Package scenario makes a whole simulation run — trace source,
// policy, cluster shape, metric sinks, sharding — one first-class,
// serializable value. A Scenario is configuration as data: it parses
// from a compact text grammar or JSON (ParseGrid, as a 1-cell grid),
// prints back canonically (ParseGrid / Scenario.String round-trip),
// and is built entirely from component registries (policy specs,
// placement names, source specs, sink specs), so every binary, example
// and experiment drives the system through one declarative path
// instead of per-flag plumbing. On top of it, Grid expands list-valued
// fields into the cells of a sweep and RunSweep executes them (see
// grid.go, run.go).
//
// The text grammar is semicolon-separated field assignments:
//
//	source=gen:apps=400&seed=7; policy=hybrid?cv=2; cluster.nodes=8;
//	cluster.mem=4096; cluster.place=binpack; sinks=coldstart,waste;
//	shard=0/4; exectime=on
//
// A seed sweep is a source axis:
// source=[gen:apps=400&seed=1,gen:apps=400&seed=2].
//
// Unknown field keys, malformed values and unknown component names
// are errors — a typo fails fast instead of silently simulating the
// default.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/trace"
)

// Scenario is one fully-described run. Component fields (Source,
// Policy, Cluster.Placement, Sinks) hold registry specs, so the whole
// value serializes; zero values select documented defaults at run
// time.
type Scenario struct {
	// Source is a trace-source spec: "csv:path", "gen:apps=400&seed=7",
	// or "shard:1/4 of <spec>". Required unless the run supplies a
	// fixed trace (WithFixedTrace).
	Source string `json:"source,omitempty"`
	// Policy is a policy registry spec ("hybrid?cv=2", "fixed?ka=20m").
	// Required.
	Policy string `json:"policy,omitempty"`
	// Cluster, when non-nil, runs the finite-memory multi-node engine
	// instead of the per-app batch simulator.
	Cluster *ClusterSpec `json:"cluster,omitempty"`
	// Sinks lists metric-sink specs ("coldstart?q=50:75", "waste",
	// "attribution", "util"). Empty selects the defaults: coldstart and
	// waste, plus attribution and util on cluster runs.
	Sinks []string `json:"sinks,omitempty"`
	// Shard restricts the run to the i-th of n interleaved app shards
	// ("1/4"), or fans out over all n shards and merges their sinks
	// ("*/4"). Empty runs the whole source.
	Shard string `json:"shard,omitempty"`
	// ExecTime makes invocations occupy their function's average
	// execution time (§3.4 idle-time semantics).
	ExecTime bool `json:"exectime,omitempty"`
}

// ClusterSpec describes the simulated cluster of a cluster scenario.
type ClusterSpec struct {
	// Nodes is the node count (>= 1; parsing normalizes 0 to 1).
	Nodes int `json:"nodes"`
	// NodeMemMB is the per-node memory capacity in MB (0 = infinite).
	NodeMemMB float64 `json:"mem,omitempty"`
	// Placement is a placement registry name ("hash", "least-loaded",
	// "binpack"); empty selects "hash".
	Placement string `json:"place,omitempty"`
	// MemCSV is an optional per-app memory table (AzurePublicDataset
	// schema) applied before the run; apps it does not cover charge
	// the paper-median default.
	MemCSV string `json:"memcsv,omitempty"`
	// Events is a timed cluster-event list (cluster.ParseEvents
	// grammar): "fail@36h:node=3,join@48h:node=3". Stored canonical;
	// empty means no events (identical to omitting the key).
	Events string `json:"events,omitempty"`
}

// placement is the one place the empty Placement becomes "hash". It
// cannot be normalize: the canonical text omits defaults, and a
// scenario built as a struct literal never passes through a parser.
func (c *ClusterSpec) placement() string {
	if c.Placement == "" {
		return "hash"
	}
	return c.Placement
}

// scenarioKeys lists the text-grammar field keys in canonical order
// (the order String emits).
var scenarioKeys = []string{
	"source", "policy",
	"cluster.nodes", "cluster.mem", "cluster.place", "cluster.memcsv", "cluster.events",
	"sinks", "shard", "exectime",
}

// parseScenarioJSON decodes the JSON form, rejecting unknown fields.
func parseScenarioJSON(data []byte) (Scenario, error) {
	var sc Scenario
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return Scenario{}, fmt.Errorf("scenario: %w", err)
	}
	if err := sc.normalize(); err != nil {
		return Scenario{}, err
	}
	return sc, nil
}

// set assigns one text-grammar field, parsing but not validating it:
// range checks live in normalize, which every parse path — text, JSON
// and Grid axes, which assign through set — runs afterwards.
func (sc *Scenario) set(key, val string) error {
	switch key {
	case "source":
		sc.Source = val
	case "policy":
		sc.Policy = val
	case "cluster.nodes":
		n, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("scenario: cluster.nodes: want a positive integer, got %q", val)
		}
		sc.ensureCluster().Nodes = n
	case "cluster.mem":
		mb, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("scenario: cluster.mem: want MB per node (0 = infinite), got %q", val)
		}
		sc.ensureCluster().NodeMemMB = mb
	case "cluster.place":
		sc.ensureCluster().Placement = val
	case "cluster.memcsv":
		sc.ensureCluster().MemCSV = val
	case "cluster.events":
		evs, err := cluster.ParseEvents(val)
		if err != nil {
			return fmt.Errorf("scenario: cluster.events: %w", err)
		}
		if len(evs) == 0 {
			// An empty event list is identical to omitting the key: it
			// must not materialize a cluster section by itself.
			if sc.Cluster != nil {
				sc.Cluster.Events = ""
			}
			return nil
		}
		sc.ensureCluster().Events = cluster.EventsString(evs)
	case "sinks":
		sc.Sinks = strings.Split(val, ",")
	case "shard":
		sc.Shard = val
	case "exectime":
		switch val {
		case "true", "on", "1", "yes":
			sc.ExecTime = true
		case "false", "off", "0", "no":
			sc.ExecTime = false
		default:
			return fmt.Errorf("scenario: exectime: invalid boolean %q", val)
		}
	default:
		return fmt.Errorf("scenario: unknown field %q (fields: %s)", key, strings.Join(scenarioKeys, ", "))
	}
	return nil
}

// ensureCluster materializes the cluster section on first cluster.*
// assignment.
func (sc *Scenario) ensureCluster() *ClusterSpec {
	if sc.Cluster == nil {
		sc.Cluster = &ClusterSpec{}
	}
	return sc.Cluster
}

// normalize is the one validator of both forms: ParseGrid runs it
// after the text or JSON decode, and after every axis assignment. It
// trims string fields, drops empty sinks, gives a present cluster
// section at least one node, canonicalizes the event list, and
// rejects what the text form cannot carry or would not re-parse: a
// negative count, a negative or non-finite memory size, a ';' in any
// field (it separates fields) and a ',' inside a sink spec (it
// separates sinks; quantile lists take ':'). So a scenario that parses
// renders a String that parses back to the same String.
func (sc *Scenario) normalize() error {
	type field struct {
		key string
		val *string
	}
	fields := []field{{"source", &sc.Source}, {"policy", &sc.Policy}, {"shard", &sc.Shard}}
	if c := sc.Cluster; c != nil {
		fields = append(fields, field{"cluster.place", &c.Placement}, field{"cluster.memcsv", &c.MemCSV})
	}
	for _, f := range fields {
		*f.val = strings.TrimSpace(*f.val)
		if strings.Contains(*f.val, ";") {
			return fmt.Errorf("scenario: %s: %q contains ';', which separates fields", f.key, *f.val)
		}
	}
	var sinks []string
	for _, s := range sc.Sinks {
		s = strings.TrimSpace(s)
		if strings.ContainsAny(s, ";,") {
			return fmt.Errorf("scenario: sinks: %q contains ';' or ',', which separate fields and sinks (list quantiles with ':')", s)
		}
		if s != "" {
			sinks = append(sinks, s)
		}
	}
	sc.Sinks = sinks
	if c := sc.Cluster; c != nil {
		if c.Nodes == 0 {
			c.Nodes = 1
		}
		if c.Nodes < 0 {
			return fmt.Errorf("scenario: cluster.nodes: want a positive integer, got %d", c.Nodes)
		}
		if c.NodeMemMB < 0 || math.IsNaN(c.NodeMemMB) || math.IsInf(c.NodeMemMB, 0) {
			return fmt.Errorf("scenario: cluster.mem: want finite MB per node >= 0 (0 = infinite), got %g", c.NodeMemMB)
		}
		// Canonicalize the event list (the JSON path accepts the same
		// grammar, including ';' separators, as raw text).
		evs, err := cluster.ParseEvents(c.Events)
		if err != nil {
			return fmt.Errorf("scenario: cluster.events: %w", err)
		}
		c.Events = cluster.EventsString(evs)
	}
	if sc.Shard != "" {
		if _, _, _, err := parseShardField(sc.Shard); err != nil {
			return err
		}
	}
	return nil
}

// parseShardField parses the Shard field: "i/n" (one shard) or "*/n"
// (fan out over all n shards, merging sinks).
func parseShardField(s string) (i, n int, all bool, err error) {
	if rest, ok := strings.CutPrefix(s, "*/"); ok {
		n, err = strconv.Atoi(rest)
		if err != nil || n <= 0 {
			return 0, 0, false, fmt.Errorf("scenario: shard: want i/n or */n, got %q", s)
		}
		return 0, n, true, nil
	}
	i, n, err = trace.ParseShard(s)
	if err != nil {
		return 0, 0, false, fmt.Errorf("scenario: shard: want i/n or */n, got %q", s)
	}
	return i, n, false, nil
}

// String renders the canonical text form: fields in fixed order,
// defaults omitted, so ParseGrid(sc.String()) reproduces sc
// exactly and equal scenarios render equal strings (the property the
// sweep engine's source-sharing and the report's cell labels key on).
func (sc Scenario) String() string {
	var parts []string
	add := func(key, val string) { parts = append(parts, key+"="+val) }
	if sc.Source != "" {
		add("source", sc.Source)
	}
	if sc.Policy != "" {
		add("policy", sc.Policy)
	}
	if c := sc.Cluster; c != nil {
		add("cluster.nodes", strconv.Itoa(c.Nodes))
		if c.NodeMemMB != 0 {
			add("cluster.mem", strconv.FormatFloat(c.NodeMemMB, 'g', -1, 64))
		}
		if c.Placement != "" {
			add("cluster.place", c.Placement)
		}
		if c.MemCSV != "" {
			add("cluster.memcsv", c.MemCSV)
		}
		if c.Events != "" {
			add("cluster.events", c.Events)
		}
	}
	if len(sc.Sinks) > 0 {
		add("sinks", strings.Join(sc.Sinks, ","))
	}
	if sc.Shard != "" {
		add("shard", sc.Shard)
	}
	if sc.ExecTime {
		add("exectime", "on")
	}
	return strings.Join(parts, "; ")
}

// clone returns a deep copy (Grid expansion mutates copies).
func (sc Scenario) clone() Scenario {
	out := sc
	if sc.Cluster != nil {
		c := *sc.Cluster
		out.Cluster = &c
	}
	if sc.Sinks != nil {
		out.Sinks = append([]string(nil), sc.Sinks...)
	}
	return out
}

// Labels returns one compact label per scenario: the assignments that
// differ across the set (the fields a sweep varies), with the shared
// base omitted. A lone scenario labels as its full canonical string.
func Labels(cells []Scenario) []string {
	if len(cells) == 1 {
		return []string{cells[0].String()}
	}
	split := make([][]string, len(cells))
	counts := map[string]int{}
	for i, sc := range cells {
		parts := strings.Split(sc.String(), "; ")
		split[i] = parts
		seen := map[string]bool{}
		for _, p := range parts {
			if !seen[p] {
				seen[p] = true
				counts[p]++
			}
		}
	}
	labels := make([]string, len(cells))
	for i, parts := range split {
		var vary []string
		for _, p := range parts {
			if counts[p] < len(cells) {
				vary = append(vary, p)
			}
		}
		if len(vary) == 0 {
			// Duplicate cells: fall back to the full canonical string.
			labels[i] = cells[i].String()
			continue
		}
		labels[i] = strings.Join(vary, "; ")
	}
	return labels
}
