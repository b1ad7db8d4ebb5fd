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
	// The generator and the platform replay read a zero as "use the
	// default", so a zero here would silently run 1000 apps, 7 days, 68
	// replay apps or 8 replay hours.
	if *apps <= 0 || !(*days > 0) || *platApps <= 0 || !(*platHrs > 0) {
		log.Fatalf("-apps, -days, -platform-apps and -platform-hours must be positive, got %d, %v, %d, %v",
			*apps, *days, *platApps, *platHrs)
	}

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

	// -out is opened before the run, so a bad path fails before the
	// work rather than after it.
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		w = f
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	start := time.Now()
	figs, err := experiments.RunAll(ctx, cfg, os.Stderr)
	if err != nil {
		log.Fatal(err)
	}

	_, err = fmt.Fprintf(w, "Serverless in the Wild — regenerated evaluation (%d apps, %v days, seed %d)\nrun time: %v\n\n",
		*apps, *days, *seed, time.Since(start).Round(time.Second))
	if err == nil {
		err = experiments.RenderAll(figs, w)
	}
	if *out != "" {
		if cerr := w.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		log.Fatal(err)
	}
	if *out != "" {
		fmt.Printf("report written to %s\n", *out)
	}
}
