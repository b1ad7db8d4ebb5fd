// Command experiments regenerates every table and figure of the
// paper's evaluation (Figures 1-8 characterization, Figures 14-19
// simulation as one grid sweep, each printing the `coldsim -scenario`
// grid that reruns it, Figure 20 platform replay) as a text report.
// Ctrl-C cancels the run cleanly. The platform replay runs in virtual
// time and repeats to the last digit, bar its real-time overhead note.
//
// Usage:
//
//	experiments -apps 1000 -days 7 -out experiments.txt
//	experiments -skip-platform          # omit the figure-20 replay
//	experiments -policies 'hybrid?cv=5,fixed?ka=30m'   # extra sweep
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	var (
		apps     = flag.Int("apps", 1000, "generated applications")
		days     = flag.Float64("days", 7, "trace length in days")
		seed     = flag.Uint64("seed", 42, "random seed")
		out      = flag.String("out", "", "report file (empty = stdout)")
		skipPlat = flag.Bool("skip-platform", false, "skip the figure-20 platform replay")
		platApps = flag.Int("platform-apps", 68, "apps in the platform replay")
		platHrs  = flag.Float64("platform-hours", 8, "platform replay window (hours)")
		policies = flag.String("policies", "", "comma-separated policy specs for an extra sweep (e.g. 'hybrid?cv=5,fixed?ka=30m')")
	)
	flag.Parse()

	cfg := experiments.Config{
		Seed:         *seed,
		NumApps:      *apps,
		Duration:     time.Duration(*days * 24 * float64(time.Hour)),
		SkipPlatform: *skipPlat,
		Platform: experiments.PlatformConfig{
			Apps:   *platApps,
			Window: time.Duration(*platHrs * float64(time.Hour)),
			Seed:   *seed,
		},
	}
	if *policies != "" {
		for _, spec := range strings.Split(*policies, ",") {
			if spec = strings.TrimSpace(spec); spec != "" {
				cfg.PolicySpecs = append(cfg.PolicySpecs, spec)
			}
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	start := time.Now()
	figs, err := experiments.RunAll(ctx, cfg, os.Stderr)
	if err != nil {
		log.Fatal(err)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	fmt.Fprintf(w, "Serverless in the Wild — regenerated evaluation (%d apps, %v days, seed %d)\n",
		*apps, *days, *seed)
	fmt.Fprintf(w, "run time: %v\n\n", time.Since(start).Round(time.Second))
	experiments.RenderAll(figs, w)
	if *out != "" {
		fmt.Printf("report written to %s\n", *out)
	}
}
