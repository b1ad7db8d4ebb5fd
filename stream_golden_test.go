package wild

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestStreamingRunMatchesBatchSimulate is the redesign's acceptance
// property on the golden population: writing the trace to the dataset
// CSV schema, streaming it back through a constant-memory CSVSource
// and Run must produce results identical — cold starts, wasted
// seconds bit patterns, mode counts — to materializing the same CSV
// with trace.Collect and running batch Simulate, for every
// golden scenario.
func TestStreamingRunMatchesBatchSimulate(t *testing.T) {
	pop := goldenPopulation(t)
	var buf bytes.Buffer
	if err := trace.WriteInvocationsCSV(&buf, pop.Trace); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	batchTrace, err := collectCSV(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}

	for _, sc := range goldenScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			want := sim.Simulate(batchTrace, sc.pol, sim.WithExecTime(sc.exec))

			src, err := trace.StreamInvocationsCSV(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			opts := []sim.Option{sim.WithExecTime(sc.exec)}
			got, err := sim.Run(context.Background(), src, freshPolicy(sc.pol), opts...)
			if err != nil {
				t.Fatal(err)
			}

			if got.Policy != want.Policy || got.HorizonSeconds != want.HorizonSeconds {
				t.Fatalf("headers differ: %s/%v vs %s/%v",
					got.Policy, got.HorizonSeconds, want.Policy, want.HorizonSeconds)
			}
			if len(got.Apps) != len(want.Apps) {
				t.Fatalf("apps %d vs %d", len(got.Apps), len(want.Apps))
			}
			for i := range want.Apps {
				if got.Apps[i] != want.Apps[i] {
					t.Fatalf("app %d (%s) differs:\n  stream %+v\n  batch  %+v",
						i, want.Apps[i].AppID, got.Apps[i], want.Apps[i])
				}
			}
		})
	}
}

// freshPolicy rebuilds a policy value so the streaming run cannot
// share mutable state with the batch run that preceded it.
func freshPolicy(p policy.Policy) policy.Policy {
	if h, ok := p.(*policy.Hybrid); ok {
		return policy.NewHybrid(h.Config())
	}
	return p
}
