package scenario

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
)

// TestSweepCancellation: cancelling the context of a running sweep
// makes RunSweep and RunSweepProcs return exactly ctx.Err() — not a
// CellError — and RunSweepProcs leaves no worker process behind. Each
// sweep reads a CSV source from a FIFO, so the test knows the sweep is
// running (its open of the FIFO pairs with the test's) and no unit can
// finish on its own before the cancel.
func TestSweepCancellation(t *testing.T) {
	t.Run("in-process", func(t *testing.T) {
		fifo := makeFIFO(t)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		errc := make(chan error, 1)
		go func() {
			_, err := RunSweep(ctx, []Scenario{{Source: "csv:" + fifo, Policy: "hybrid"}})
			errc <- err
		}()
		w := openWriter(t, fifo, errc)
		cancel()
		// Unblock the unit's header read; its engine then sees the cancel.
		w.WriteString("HashOwner,HashApp,HashFunction,Trigger,1\no,a,f,http,1\n")
		w.Close()
		if err := <-errc; err != ctx.Err() {
			t.Fatalf("RunSweep = %v, want %v", err, ctx.Err())
		}
	})

	t.Run("processes", func(t *testing.T) {
		if testing.Short() {
			t.Skip("spawns worker processes")
		}
		fifo := makeFIFO(t)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cells := []Scenario{
			{Source: "csv:" + fifo, Policy: "hybrid"},
			{Source: "csv:" + fifo, Policy: "fixed?ka=10m"},
		}
		errc := make(chan error, 1)
		go func() {
			_, err := RunSweepProcs(ctx, cells, 2)
			errc <- err
		}()
		w := openWriter(t, fifo, errc)
		defer w.Close() // after the sweep: workers block on the empty FIFO until killed
		if len(children(t)) == 0 {
			t.Fatal("no worker process running before the cancel")
		}
		cancel()
		if err := <-errc; err != ctx.Err() {
			t.Fatalf("RunSweepProcs = %v, want %v", err, ctx.Err())
		}
		if kids := children(t); len(kids) > 0 {
			t.Fatalf("worker processes left after RunSweepProcs returned: %v", kids)
		}
	})
}

// TestSweepWalkersExitAfterCancel: two groups of batch cells — three
// cells on one FIFO, one on another — stream CSVs through the sweep's
// shared walkers; the sweep is cancelled after each group has been
// handed apps and before either source ends. RunSweep must return
// ctx.Err() and leave no goroutine behind.
func TestSweepWalkersExitAfterCancel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	fifos := []string{makeFIFO(t), makeFIFO(t)}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base := runtime.NumGoroutine()
	errc := make(chan error, 1)
	go func() {
		_, err := RunSweep(ctx, []Scenario{
			{Source: "csv:" + fifos[0], Policy: "hybrid"},
			{Source: "csv:" + fifos[1], Policy: "fixed?ka=10m"},
			{Source: "csv:" + fifos[0], Policy: "fixed?ka=10m", ExecTime: true},
			{Source: "csv:" + fifos[0], Policy: "hybrid?arima=off"},
		})
		errc <- err
	}()
	var ws []*os.File
	for _, fifo := range fifos {
		w := openWriter(t, fifo, errc)
		w.WriteString("HashOwner,HashApp,HashFunction,Trigger,1\n")
		for a := 0; a < 50; a++ {
			w.WriteString("o,a" + strconv.Itoa(a) + ",f,http,1\n")
		}
		ws = append(ws, w)
	}
	cancel()
	for _, w := range ws {
		w.Close()
	}
	if err := <-errc; err != ctx.Err() {
		t.Fatalf("RunSweep = %v, want %v", err, ctx.Err())
	}
	goroutinesBackTo(t, base)
}

func makeFIFO(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "invocations.csv")
	if err := syscall.Mkfifo(path, 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// openWriter opens the FIFO for writing, which returns once a sweep
// unit has opened it for reading; a sweep that returns first fails the
// test.
func openWriter(t *testing.T, fifo string, errc <-chan error) *os.File {
	t.Helper()
	opened := make(chan *os.File, 1)
	go func() {
		w, err := os.OpenFile(fifo, os.O_WRONLY, 0)
		if err != nil {
			t.Error(err)
		}
		opened <- w
	}()
	select {
	case w := <-opened:
		if w == nil {
			t.FailNow()
		}
		return w
	case err := <-errc:
		t.Fatalf("sweep returned %v before opening its source", err)
		return nil
	}
}

// children lists this process's child processes, running or unreaped.
func children(t *testing.T) []int {
	t.Helper()
	entries, err := os.ReadDir("/proc")
	if err != nil {
		t.Skipf("no /proc to list child processes: %v", err)
	}
	self := strconv.Itoa(os.Getpid())
	var kids []int
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		stat, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat"))
		if err != nil {
			continue // exited since the listing
		}
		// "pid (comm) state ppid ...": comm may hold spaces and parens.
		fields := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
		if len(fields) > 1 && fields[1] == self {
			kids = append(kids, pid)
		}
	}
	return kids
}
