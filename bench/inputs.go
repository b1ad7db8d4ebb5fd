package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/trace"
	gen "repro/internal/workload"
)

// popSpec is one generated population. The three shapes span the paper's
// 8-orders-of-magnitude invocation-rate range from opposite ends: dense
// (thousands of invocations per app), mid, and sparse (the many
// rarely-invoked apps that dominate the real workload, ~93 per app).
type popSpec struct {
	Name      string
	Stream    int // subSeed stream, so no two populations share a seed
	Apps      int
	Days      float64
	MaxRate   float64
	MaxEvents int
}

// sizes fixes how much work every workload does. fullSizes is the
// benchmark; quickSizes is the same code paths at toy scale for the smoke
// test. App counts are at most 2x below ISSUE 12's sizing runs (cluster
// node counts scaled with them, so per-node load is unchanged) to keep one
// rep near a second: the driver allows ~20 s per run including set-up.
type sizes struct {
	Dense, Mid, Sparse popSpec
	SparseNodes        int // cluster-sparse node count
	ChaosNodes         int // cluster-chaos node count
	HotApps, WideApps  int // serve-hot / serve-wide registered apps
	HotCalls           int // Decide calls per worker per rep, serve-hot
	WidePasses         int // passes over its apps per worker per rep, serve-wide
	Actions            int // serve-http registered actions
	Requests           int // serve-http requests per connection per rep
	MinReps            int
	SetupReps          int
}

var fullSizes = sizes{
	Dense:       popSpec{"dense", 1, 4000, 7, 1000, 20000},
	Mid:         popSpec{"mid", 2, 1500, 3, 1000, 8000},
	Sparse:      popSpec{"sparse", 3, 50000, 1, 200, 300},
	SparseNodes: 50,
	ChaosNodes:  8,
	HotApps:     512,
	WideApps:    200000,
	HotCalls:    2 << 20,
	WidePasses:  5,
	Actions:     2000,
	Requests:    15000,
	MinReps:     5,
	SetupReps:   3,
}

var quickSizes = sizes{
	Dense:       popSpec{"dense", 1, 60, 2, 1000, 2000},
	Mid:         popSpec{"mid", 2, 40, 3, 1000, 1000},
	Sparse:      popSpec{"sparse", 3, 600, 1, 200, 300},
	SparseNodes: 4,
	ChaosNodes:  8,
	HotApps:     64,
	WideApps:    4000,
	HotCalls:    1 << 15,
	WidePasses:  2,
	Actions:     50,
	Requests:    300,
	MinReps:     1,
	SetupReps:   1,
}

func sizesFor(quick bool) sizes {
	if quick {
		return quickSizes
	}
	return fullSizes
}

// pinnedInputs are the input digests of the full-size populations at the
// default seed. A generator change that alters them is a hard error here,
// not a silently different workload: re-pin in the PR that means to.
var pinnedInputs = map[string]string{
	"dense":  "6ebc5b7eb2f65016", // 4000 apps, 9454559 invocations
	"mid":    "6774fc08a1d7e7d9", // 1500 apps, 1590311 invocations
	"sparse": "132742e8f1870f64", // 50000 apps, 4693048 invocations
}

const defaultSeed = 42

// popInfo identifies a generated population: two commits that print the
// same digest simulated the same inputs.
type popInfo struct {
	Apps        int64  `json:"apps"`
	Invocations int64  `json:"invocations"`
	Digest      string `json:"digest"`
}

// subSeed derives the seed of one input stream from the run's -seed, so
// populations and request schedules never share a random stream.
func subSeed(seed uint64, stream int) uint64 { return seed*16 + uint64(stream) }

func generate(p popSpec, seed uint64) (*trace.Trace, popInfo, error) {
	pop, err := gen.Generate(gen.Config{
		Seed:                 subSeed(seed, p.Stream),
		NumApps:              p.Apps,
		Duration:             time.Duration(p.Days * 24 * float64(time.Hour)),
		MaxDailyRate:         p.MaxRate,
		MaxEventsPerFunction: p.MaxEvents,
	})
	if err != nil {
		return nil, popInfo{}, fmt.Errorf("generating %s: %w", p.Name, err)
	}
	return pop.Trace, describe(pop.Trace), nil
}

// describe hashes the app count, the invocation total and every app's own
// count, in app order.
func describe(tr *trace.Trace) popInfo {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	total := 0
	put(len(tr.Apps))
	for _, a := range tr.Apps {
		n := a.TotalInvocations()
		total += n
		put(n)
	}
	put(total)
	return popInfo{Apps: int64(len(tr.Apps)), Invocations: int64(total), Digest: fmt.Sprintf("%016x", h.Sum64())}
}

// writeFile writes tr to dir/name through enc and returns the path and the
// bytes written.
func writeFile(dir, name string, tr *trace.Trace, enc func(io.Writer, *trace.Trace) error) (string, int64, error) {
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", 0, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := enc(bw, tr); err != nil {
		f.Close()
		return "", 0, fmt.Errorf("writing %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return "", 0, err
	}
	return path, st.Size(), f.Close()
}
