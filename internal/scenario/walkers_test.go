package scenario

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/workload"
)

// sixPolicies is a 6-cell batch grid's policy axis.
const sixPolicies = "policy=[fixed?ka=10m,fixed?ka=1h,hybrid,hybrid?range=2h,hybrid?arima=off,nounload]"

// goroutinesBackTo fails unless the goroutine count falls back to at
// most base: a sweep's walkers and producers must all have exited once
// RunSweep returns (the poll only covers the instant between a
// goroutine's last statement and its exit).
func goroutinesBackTo(t *testing.T, base int) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > base; i++ {
		if i == 2000 {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after the sweep, %d before:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSweepWalkersExitAfterCleanSweep: a 6-cell batch sweep leaves no
// goroutine behind.
func TestSweepWalkersExitAfterCleanSweep(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cells := mustGrid(t, "source="+smallGen+"; "+sixPolicies)
	base := runtime.NumGoroutine()
	if _, err := RunSweep(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	goroutinesBackTo(t, base)
}

// TestSweepWalkersExitAfterSourceFailure: six cells stream one CSV
// whose first app reappears halfway through, as one group behind a
// cell on another source, so the group's source fails mid-run with
// apps in flight on the shared walkers. RunSweep must report the
// failure as a *CellError naming the group's first cell and leave no
// goroutine behind.
func TestSweepWalkersExitAfterSourceFailure(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	path := brokenCSV(t)
	cells := append(mustGrid(t, "source="+smallGen+"; policy=hybrid"),
		mustGrid(t, "source=csv:"+path+"; "+sixPolicies)...)
	base := runtime.NumGoroutine()
	_, err := RunSweep(context.Background(), cells)
	var cellErr *CellError
	if !errors.As(err, &cellErr) || !strings.Contains(err.Error(), "not contiguous") {
		t.Fatalf("err = %v, want a *CellError for the reappearing app", err)
	}
	if cellErr.Index != 1 {
		t.Errorf("CellError.Index = %d, want 1 (the failing group's first cell)", cellErr.Index)
	}
	goroutinesBackTo(t, base)
}

// brokenCSV writes an invocations CSV whose first app reappears
// halfway through, so a reader streaming it fails mid-file with "not
// contiguous", and returns its path.
func brokenCSV(t *testing.T) string {
	t.Helper()
	pop, err := workload.Generate(workload.Config{
		Seed: 9, NumApps: 80, Duration: 24 * time.Hour,
		MaxDailyRate: 300, MaxEventsPerFunction: 800,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteInvocationsCSV(&buf, pop.Trace); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(buf.String(), "\n")
	mid := len(lines) / 2
	bad := append(append(append([]string{}, lines[:mid]...), lines[1]), lines[mid:]...)
	path := filepath.Join(t.TempDir(), "invocations.csv")
	if err := os.WriteFile(path, []byte(strings.Join(bad, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func mustGrid(t *testing.T, s string) []Scenario {
	t.Helper()
	g, err := ParseGrid(s)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := g.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	return cells
}
