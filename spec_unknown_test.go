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
// through spec.Build: a misspelled key must fail fast AND name the
// keys the builder actually understands, so the fix is one glance
// away. Each case misspells a real parameter and asserts both the
// rejection and the vocabulary listing.
func TestUnknownKeyErrorsListKnownKeys(t *testing.T) {
	cases := []struct {
		name  string
		build func() error
		// wantUnknown is the misspelled key the error must name;
		// wantKnown are vocabulary entries that must be listed.
		wantUnknown string
		wantKnown   []string
	}{
		{
			name: "policy",
			build: func() error {
				_, err := policy.FromSpec("hybrid?binwdith=2m")
				return err
			},
			wantUnknown: "binwdith",
			wantKnown:   []string{"binwidth", "cv", "exact", "refit"},
		},
		{
			name: "placement",
			build: func() error {
				_, err := cluster.NewPlacement("binpack?ordr=invocations")
				return err
			},
			wantUnknown: "ordr",
			wantKnown:   []string{"order"},
		},
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
				t.Fatal("misspelled key accepted")
			}
			msg := err.Error()
			if !strings.Contains(msg, "unknown parameters") || !strings.Contains(msg, c.wantUnknown) {
				t.Errorf("error does not name the unknown key %q: %v", c.wantUnknown, err)
			}
			if !strings.Contains(msg, "known:") {
				t.Fatalf("error does not list known keys: %v", err)
			}
			for _, k := range c.wantKnown {
				if !strings.Contains(msg, k) {
					t.Errorf("error does not list known key %q: %v", k, err)
				}
			}
		})
	}
}
