package wild

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/policy"
	"repro/internal/scenario"
)

// TestUnknownKeyErrorsListKnownKeys pins the unknown-parameter
// diagnostics across everything that parses a query — the three
// name?k=v registries, gen:'s query and the cluster event list, all
// through spec.Build: a misspelled or deleted key must fail fast AND
// name the keys the builder actually understands, so the fix is one
// glance away. A deleted registry name or scenario field fails the
// same way, listing the registered names or the fields. Each case
// asserts both the rejection and the vocabulary listing.
func TestUnknownKeyErrorsListKnownKeys(t *testing.T) {
	policyErr := func(s string) func() error {
		return func() error { _, err := policy.FromSpec(s); return err }
	}
	placementErr := func(s string) func() error {
		return func() error { _, err := cluster.NewPlacement(s); return err }
	}
	hybridKeys := []string{"arima", "cv", "exact", "forecaster", "head", "prewarm", "range", "refit", "tail"}
	cases := []struct {
		name  string
		build func() error
		// wantUnknown is the rejected key or name the error must name;
		// listing heads the vocabulary ("known:" for keys), and
		// wantKnown are entries it must list.
		wantUnknown string
		listing     string
		wantKnown   []string
	}{
		{
			name:        "policy",
			build:       policyErr("hybrid?rnage=2h"),
			wantUnknown: "rnage",
			wantKnown:   []string{"range", "cv", "exact", "refit"},
		},
		{name: "policy-binwidth", build: policyErr("hybrid?binwidth=2m"), wantUnknown: "binwidth", wantKnown: hybridKeys},
		{name: "policy-bins", build: policyErr("hybrid?bins=10"), wantUnknown: "bins", wantKnown: hybridKeys},
		{name: "policy-margin", build: policyErr("hybrid?margin=0.2"), wantUnknown: "margin", wantKnown: hybridKeys},
		{name: "policy-oob", build: policyErr("hybrid?oob=0.3"), wantUnknown: "oob", wantKnown: hybridKeys},
		{name: "policy-arima-margin", build: policyErr("hybrid?arima-margin=0.25"), wantUnknown: "arima-margin", wantKnown: hybridKeys},
		{
			name:        "policy-name",
			build:       policyErr("no-unloading"),
			wantUnknown: `unknown policy "no-unloading"`,
			listing:     "registered:",
			wantKnown:   []string{"fixed", "hybrid", "nounload"},
		},
		{
			// Placements take no parameters: the listing is empty.
			name:        "placement",
			build:       placementErr("binpack?order=invocations"),
			wantUnknown: "order",
		},
		{name: "placement-hash-seed", build: placementErr("hash?seed=3"), wantUnknown: "seed"},
		{
			name: "sink",
			build: func() error {
				_, err := scenario.NewSink("coldstart?quantiles=50")
				return err
			},
			wantUnknown: "quantiles",
			wantKnown:   []string{"q"},
		},
		{
			name: "source",
			build: func() error {
				_, err := scenario.NewSource("gen:aps=3")
				return err
			},
			wantUnknown: "aps",
			wantKnown:   []string{"apps", "days", "seed"},
		},
		{
			name: "scenario-seed",
			build: func() error {
				_, err := scenario.ParseGrid("source=gen:apps=3; policy=hybrid; seed=9")
				return err
			},
			wantUnknown: `unknown field "seed"`,
			listing:     "fields:",
			wantKnown:   []string{"source", "policy", "shard", "exectime"},
		},
		{
			name: "scenario-workers",
			build: func() error {
				_, err := scenario.ParseGrid("source=gen:apps=3; policy=hybrid; workers=2")
				return err
			},
			wantUnknown: `unknown field "workers"`,
			listing:     "fields:",
			wantKnown:   []string{"source", "policy", "cluster.nodes", "sinks", "shard", "exectime"},
		},
		{
			name: "cluster.events",
			build: func() error {
				_, err := cluster.ParseEvents("resize@1h:node=1&mem=512&nod=2")
				return err
			},
			wantUnknown: "nod",
			wantKnown:   []string{"mem", "node"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.build()
			if err == nil {
				t.Fatal("rejected key or name accepted")
			}
			msg := err.Error()
			listing := c.listing
			if listing == "" {
				listing = "known:"
				if !strings.Contains(msg, "unknown parameters") {
					t.Errorf("error is not an unknown-parameters error: %v", err)
				}
			}
			if !strings.Contains(msg, c.wantUnknown) {
				t.Errorf("error does not name %q: %v", c.wantUnknown, err)
			}
			_, list, ok := strings.Cut(msg, listing)
			if !ok {
				t.Fatalf("error does not list %s: %v", listing, err)
			}
			for _, k := range c.wantKnown {
				if !strings.Contains(list, k) {
					t.Errorf("error does not list %q: %v", k, err)
				}
			}
		})
	}
}
