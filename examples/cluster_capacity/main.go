// Cluster capacity sweep: run the paper's hybrid policy (and the
// fixed 10-minute baseline) on a finite-memory cluster while node
// memory shrinks, and watch the frontier the infinite-memory
// evaluation cannot express — tighter memory, more pressure
// evictions, more cold starts the policy never predicted. The last
// row (mem=inf) is bit-identical to the plain simulator; every
// degradation above it is attributable to capacity, not to the
// policy.
//
// The sweep is one Grid — policy × node memory over a shared
// generator source — so the whole experiment is two axes and a print
// loop; the engine materializes the trace once and runs the cells
// concurrently.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/scenario"
)

func main() {
	log.SetFlags(0)

	const nodes = 8
	policies := []string{"hybrid", "fixed?ka=10m"}
	capacities := []string{"512", "1024", "2048", "4096", "8192", "0"} // MB per node; 0 = infinite

	cells, err := scenario.Grid{
		Base: scenario.Scenario{
			Source: "gen:apps=200&days=1&seed=21",
			Cluster: &scenario.ClusterSpec{
				Nodes:     nodes,
				Placement: "least-loaded",
			},
			Sinks: []string{"coldstart?q=50:75:99", "waste", "attribution", "util"},
		},
		Axes: []scenario.Axis{
			{Key: "policy", Values: policies},
			{Key: "cluster.mem", Values: capacities},
		},
	}.Scenarios()
	if err != nil {
		log.Fatal(err)
	}
	rep, err := scenario.RunSweep(context.Background(), cells)
	if err != nil {
		log.Fatal(err)
	}

	cell := 0
	for range policies {
		fmt.Printf("policy %s on %d nodes (placement: least-loaded)\n",
			rep.Cells[cell].PolicyName, nodes)
		fmt.Printf("%10s %12s %12s %12s %12s %10s %9s\n",
			"mem(MB)", "cold(%)", "coldQ3(%)", "coldP99(%)", "evictCold(%)", "evictions", "util(%)")
		for _, capMB := range capacities {
			c := rep.Cells[cell]
			cell++
			memLabel := "inf"
			if capMB != "0" {
				memLabel = capMB
			}
			metric := func(name string) float64 {
				v, _ := c.Metric(name)
				return v
			}
			coldPct := 0.0
			if inv := metric("invocations"); inv > 0 {
				coldPct = 100 * metric("cold_starts") / inv
			}
			fmt.Printf("%10s %12.2f %12.2f %12.2f %12.2f %10.0f %9.1f\n",
				memLabel, coldPct, metric("cold_p75"), metric("cold_p99"),
				metric("evict_cold_pct"), metric("evictions"), metric("util_pct"))
		}
		fmt.Println()
	}
}
