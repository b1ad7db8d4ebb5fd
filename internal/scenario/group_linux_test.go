package scenario

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/trace"
)

// TestSweepGroupDecodesSourceOnce: the batch cells of a sweep that
// read one source run as one group, which opens and decodes it once.
// A FIFO written once can be read once, so a 3-cell sweep over it
// completes only if no cell opens it again; its metrics must equal the
// same sweep's over a regular file. A sweep that opened the source per
// cell would leave a cell blocked opening the FIFO (or splitting its
// bytes with another); after the deadline the test opens the FIFO for
// writing to unblock such an open, and fails.
func TestSweepGroupDecodesSourceOnce(t *testing.T) {
	fac, err := NewSource(smallGen)
	if err != nil {
		t.Fatal(err)
	}
	src, _, err := fac.Open()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	var data bytes.Buffer
	if err := trace.WriteInvocationsCSV(&data, tr); err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(t.TempDir(), "invocations.csv")
	if err := os.WriteFile(file, data.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	fifo := makeFIFO(t)
	const grid = "; policy=[fixed?ka=10m,hybrid,hybrid?arima=off]"
	want, err := RunSweep(context.Background(), mustGrid(t, "source=csv:"+file+grid))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	type outcome struct {
		rep *SweepReport
		err error
	}
	cells := mustGrid(t, "source=csv:"+fifo+grid)
	done := make(chan outcome, 1)
	go func() {
		rep, err := RunSweep(ctx, cells)
		done <- outcome{rep, err}
	}()
	wrote := make(chan error, 1)
	go func() {
		w, err := os.OpenFile(fifo, os.O_WRONLY, 0)
		if err != nil {
			wrote <- err
			return
		}
		_, err = w.Write(data.Bytes())
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		wrote <- err
	}()

	var got outcome
	select {
	case got = <-done:
	case <-ctx.Done():
		for got.rep == nil && got.err == nil {
			if w, err := os.OpenFile(fifo, os.O_WRONLY|syscall.O_NONBLOCK, 0); err == nil {
				w.Close()
			}
			select {
			case got = <-done:
			case <-time.After(10 * time.Millisecond):
			}
		}
		t.Fatalf("sweep over a FIFO still running at the deadline (it opened its source more than once); then returned %v", got.err)
	}
	if got.err != nil {
		t.Fatalf("sweep over a FIFO: %v", got.err)
	}
	if err := <-wrote; err != nil {
		t.Fatalf("writing the FIFO: %v", err)
	}
	for i, c := range got.rep.Cells {
		gm, wm := metricsOf(t, c), metricsOf(t, want.Cells[i])
		if len(gm) != len(wm) || c.PolicyName != want.Cells[i].PolicyName {
			t.Fatalf("cell %d: %s %v over the FIFO, %s %v over the file", i, c.PolicyName, gm, want.Cells[i].PolicyName, wm)
		}
		for name, v := range wm {
			if gm[name] != v {
				t.Errorf("cell %d: %s = %v over the FIFO, %v over the file", i, name, gm[name], v)
			}
		}
	}
}
