// Policy tuning: sweep the hybrid policy's histogram range, cutoff
// percentiles and CV threshold over one workload, and print the
// (cold starts, wasted memory) trade-off table — the §5.2 sensitivity
// studies (Figures 15, 16 and 18) in miniature. The whole sweep is
// one Grid: a shared generator source, a policy axis, and the
// baseline for normalization — every variant is data, the engine
// materializes the trace once and runs the cells concurrently.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/scenario"
)

const source = "gen:apps=300&days=3&seed=7"

func main() {
	log.SetFlags(0)

	sweeps := []struct {
		title string
		specs []string
	}{
		{"histogram range sweep (Figure 15)", []string{
			"hybrid?range=1h", "hybrid?range=2h", "hybrid?range=4h",
		}},
		{"cutoff percentile sweep (Figure 16)", []string{
			"hybrid?head=0&tail=100", "hybrid?head=5&tail=99", "hybrid?head=5&tail=95",
		}},
		{"CV threshold sweep (Figure 18)", []string{
			"hybrid?cv=0", "hybrid?cv=2", "hybrid?cv=10",
		}},
		{"fixed keep-alive reference points", []string{
			"fixed?ka=10m", "fixed?ka=1h", "fixed?ka=2h",
		}},
	}

	// One grid covers every section: the baseline is cell 0 and each
	// distinct spec appears once (the sections index into the cells).
	policyAxis := []string{"fixed?ka=10m"}
	cellOf := map[string]int{"fixed?ka=10m": 0}
	for _, s := range sweeps {
		for _, spec := range s.specs {
			if _, dup := cellOf[spec]; !dup {
				cellOf[spec] = len(policyAxis)
				policyAxis = append(policyAxis, spec)
			}
		}
	}
	cells, err := scenario.Grid{
		Base: scenario.Scenario{Source: source, Sinks: []string{"coldstart", "waste"}},
		Axes: []scenario.Axis{{Key: "policy", Values: policyAxis}},
	}.Scenarios()
	if err != nil {
		log.Fatal(err)
	}
	rep, err := scenario.RunSweep(context.Background(), cells)
	if err != nil {
		log.Fatal(err)
	}
	baseWasted, _ := rep.Cells[0].Metric("wasted_seconds")

	for i, s := range sweeps {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("— %s —\n", s.title)
		for _, spec := range s.specs {
			c := rep.Cells[cellOf[spec]]
			q3, _ := c.Metric("cold_p75")
			wasted, _ := c.Metric("wasted_seconds")
			wm := 0.0
			if baseWasted > 0 {
				wm = 100 * wasted / baseWasted
			}
			fmt.Printf("%-34s  coldQ3=%6.2f%%  wastedMem=%7.2f%%\n", spec, q3, wm)
		}
	}
}
