// Command soakbench drives the serving control plane
// (internal/serve) at sustained high concurrency and reports
// decision-latency percentiles and throughput — the CI soak smoke
// gate.
//
// Usage:
//
//	go run ./cmd/soakbench [-policy hybrid] [-apps 512] [-workers N]
//	    [-duration 3s] [-shards 32] [-meanidle 2m] [-seed 1]
//	    [-record out.bundle] [-assert-p99 0]
//
// The JSON result goes to stdout; a human summary to stderr. With
// -assert-p99 the run exits non-zero when the p99 decision latency
// exceeds the bound (CI regression gate). With -record the driven
// stream is written out as an incident bundle, replayable with
// coldsim ("source=bundle:out.bundle") or replay.ReplayBundle.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"repro/internal/serve"
)

func main() {
	var cfg serve.SoakConfig
	flag.StringVar(&cfg.PolicySpec, "policy", "hybrid", "policy spec to serve")
	flag.IntVar(&cfg.Apps, "apps", 512, "distinct apps driven")
	flag.IntVar(&cfg.Workers, "workers", 0, "concurrent drivers (0 = 2×GOMAXPROCS)")
	flag.DurationVar(&cfg.Duration, "duration", 3*time.Second, "wall-clock soak length")
	flag.IntVar(&cfg.Shards, "shards", 0, "controller lock shards (0 = default)")
	flag.DurationVar(&cfg.MeanIdle, "meanidle", 2*time.Minute, "mean synthetic inter-arrival gap")
	flag.Uint64Var(&cfg.Seed, "seed", 1, "arrival randomness seed")
	record := flag.String("record", "", "write the driven stream as an incident bundle")
	assertP99 := flag.Duration("assert-p99", 0, "fail if p99 decision latency exceeds this (0 = off)")
	flag.Parse()

	if *record != "" {
		f, err := os.Create(*record)
		if err != nil {
			fmt.Fprintln(os.Stderr, "soakbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		cfg.Record = f
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := serve.Soak(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "soakbench:", err)
		os.Exit(1)
	}

	fmt.Fprintf(os.Stderr,
		"soakbench: %s  %d workers / %d apps  %.0f decisions/s  p50 %v  p99 %v  p99.9 %v\n",
		res.Policy, res.Workers, res.Apps, res.ThroughputPerSec, res.P50, res.P99, res.P999)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "\t")
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "soakbench:", err)
		os.Exit(1)
	}
	if *assertP99 > 0 && res.P99 > *assertP99 {
		fmt.Fprintf(os.Stderr, "soakbench: p99 %v exceeds bound %v\n", res.P99, *assertP99)
		os.Exit(1)
	}
}
