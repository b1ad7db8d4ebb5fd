// Trace analysis: characterize a workload the way §3 of the paper
// characterizes Azure Functions — app sizes, trigger mix, invocation
// rates, IAT variability, execution times and memory — and print the
// regenerated Figures 1-8. Point it at an AzurePublicDataset
// invocations CSV with -trace to characterize the real sanitized
// trace instead of a synthetic one.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)

	tracePath := flag.String("trace", "", "optional invocations CSV to characterize")
	flag.Parse()

	var pop *workload.Population
	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		// Characterization needs the whole population, so the streamed
		// apps are collected; simulation-only consumers would instead
		// pass the source straight to sim.Run and stay constant-memory.
		src, err := trace.StreamInvocationsCSV(f)
		if err != nil {
			log.Fatal(err)
		}
		tr, err := trace.Collect(src)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		// Wrap the real trace: rate metadata comes from realized counts.
		pop = &workload.Population{Trace: tr}
		days := tr.Duration.Hours() / 24
		for _, app := range tr.Apps {
			m := workload.AppMeta{}
			for _, fn := range app.Functions {
				fm := workload.FnMeta{
					DailyRate: float64(len(fn.Invocations)) / days,
					Trigger:   fn.Trigger,
				}
				m.Functions = append(m.Functions, fm)
				m.DailyRate += fm.DailyRate
			}
			pop.Meta = append(pop.Meta, m)
		}
	} else {
		var err error
		pop, err = workload.Generate(workload.Config{
			Seed: 3, NumApps: 500, Duration: 7 * 24 * time.Hour,
			MaxDailyRate: 2000, MaxEventsPerFunction: 20000,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("characterizing a synthetic 500-app, 7-day workload")
	}

	figs := []*experiments.Figure{
		experiments.Figure1(pop),
		experiments.Figure2(pop),
		experiments.Figure3(pop),
		experiments.Figure4(pop),
		experiments.Figure5(pop),
		experiments.Figure6(pop),
		experiments.Figure7(pop),
		experiments.Figure8(pop),
	}
	fmt.Println()
	if err := experiments.RenderAll(figs, os.Stdout); err != nil {
		log.Fatal(err)
	}
}
