// Command tracegen materializes a trace source and writes it in the
// AzurePublicDataset CSV schemas (invocations per minute, duration
// summaries, per-app memory). The source is a scenario source spec —
// the same grammar every other binary uses — so tracegen generates
// synthetic populations, re-shards existing CSVs, or slices either.
//
// Usage:
//
//	tracegen -source 'gen:apps=500&days=7&seed=42' -out ./trace
//	tracegen -source 'shard:2/8 of gen:apps=100000&seed=42' -out ./trace-shard2
//	tracegen -source 'csv:big.csv' -out ./copy
//	tracegen -source 'gen:apps=1000000&seed=42' -encode -out ./trace
//
// With -encode the output is a single compact binary bundle
// (trace.bin, readable via the tracec: source scheme) instead of the
// CSV trio: one file, run-length + varint compressed invocation
// columns, exec stats and memory carried natively.
//
// With a shard source only the selected interleaved app shard is
// written — n invocations of tracegen (same seed) partition one large
// population across files for multi-process simulation sweeps.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/scenario"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracegen: ")

	var (
		source = flag.String("source", "gen:apps=500&days=7&seed=42&maxrate=20000&maxevents=200000",
			fmt.Sprintf("trace source spec (schemes: %v)", scenario.SourceNames()))
		out    = flag.String("out", "trace", "output directory")
		encode = flag.Bool("encode", false, "write a compact binary bundle (trace.bin) instead of the CSV trio")
	)
	flag.Parse()

	factory, err := scenario.NewSource(*source)
	if err != nil {
		log.Fatal(err)
	}
	src, release, err := factory.Open()
	if err != nil {
		log.Fatal(err)
	}
	tr, err := trace.Collect(src)
	if cerr := release(); err == nil {
		err = cerr
	}
	if err != nil {
		log.Fatal(err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}

	write := func(name string, fn func(f *os.File) error) {
		path := filepath.Join(*out, name)
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := fn(f); err != nil {
			log.Fatalf("writing %s: %v", path, err)
		}
		fmt.Printf("wrote %s\n", path)
	}
	if *encode {
		write("trace.bin", func(f *os.File) error {
			return trace.WriteBinary(f, tr)
		})
	} else {
		write("invocations.csv", func(f *os.File) error {
			return trace.WriteInvocationsCSV(f, tr)
		})
		write("durations.csv", func(f *os.File) error {
			return trace.WriteDurationsCSV(f, tr)
		})
		write("memory.csv", func(f *os.File) error {
			return trace.WriteMemoryCSV(f, tr)
		})
	}
	fmt.Printf("materialized %s: %d apps, %d functions, %d invocations over %v\n",
		factory.Spec(), len(tr.Apps), tr.TotalFunctions(), tr.TotalInvocations(), tr.Duration)
}
