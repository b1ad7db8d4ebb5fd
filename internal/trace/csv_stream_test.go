package trace

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"
)

// syntheticCSVTrace builds a trace of identical-shape apps and its
// invocations-CSV encoding, for streaming tests that need controlled
// sizes.
func syntheticCSVTrace(t *testing.T, apps, minutes, perMinute int) (*Trace, []byte) {
	t.Helper()
	tr := &Trace{Duration: time.Duration(minutes) * time.Minute}
	for i := 0; i < apps; i++ {
		app := &App{ID: fmt.Sprintf("app%05d", i), Owner: fmt.Sprintf("own%05d", i/3)}
		for f := 0; f < 2; f++ {
			fn := &Function{ID: fmt.Sprintf("fn%05d_%d", i, f), Trigger: TriggerHTTP}
			for m := 0; m < minutes; m++ {
				base := float64(m) * 60
				for k := 0; k < perMinute; k++ {
					fn.Invocations = append(fn.Invocations, base+60*float64(k)/float64(perMinute))
				}
			}
			app.Functions = append(app.Functions, fn)
		}
		tr.Apps = append(tr.Apps, app)
	}
	var buf bytes.Buffer
	if err := WriteInvocationsCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return tr, buf.Bytes()
}

// TestStreamMatchesBatchReader pins the reader to the trace that was
// written: syntheticCSVTrace places invocations on the codec's
// canonical timestamps, so decoding its CSV, streamed and collected,
// must reproduce it exactly.
func TestStreamMatchesBatchReader(t *testing.T) {
	want, data := syntheticCSVTrace(t, 17, 12, 3)
	got, err := collectCSV(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	requireSameTrace(t, "streamed", got, want)
}

// requireSameTrace fails unless got equals want app for app, function
// for function, timestamp for timestamp.
func requireSameTrace(t *testing.T, name string, got, want *Trace) {
	t.Helper()
	if got.Duration != want.Duration {
		t.Fatalf("%s: duration %v vs %v", name, got.Duration, want.Duration)
	}
	if len(got.Apps) != len(want.Apps) {
		t.Fatalf("%s: apps %d vs %d", name, len(got.Apps), len(want.Apps))
	}
	for i, wapp := range want.Apps {
		gapp := got.Apps[i]
		if gapp.ID != wapp.ID || gapp.Owner != wapp.Owner || len(gapp.Functions) != len(wapp.Functions) {
			t.Fatalf("%s: app %d: %s/%s/%d vs %s/%s/%d", name, i,
				gapp.ID, gapp.Owner, len(gapp.Functions), wapp.ID, wapp.Owner, len(wapp.Functions))
		}
		for j, wfn := range wapp.Functions {
			gfn := gapp.Functions[j]
			if gfn.ID != wfn.ID || gfn.Trigger != wfn.Trigger {
				t.Fatalf("%s: app %s fn %d metadata differs", name, wapp.ID, j)
			}
			if len(gfn.Invocations) != len(wfn.Invocations) {
				t.Fatalf("%s: app %s fn %s: %d vs %d invocations",
					name, wapp.ID, wfn.ID, len(gfn.Invocations), len(wfn.Invocations))
			}
			for k := range wfn.Invocations {
				if gfn.Invocations[k] != wfn.Invocations[k] {
					t.Fatalf("%s: app %s fn %s invocation %d: %v vs %v",
						name, wapp.ID, wfn.ID, k, gfn.Invocations[k], wfn.Invocations[k])
				}
			}
		}
	}
}

// TestStreamMalformedRows: every malformed table is an error, and
// errors are sticky.
func TestStreamMalformedRows(t *testing.T) {
	const header = "HashOwner,HashApp,HashFunction,Trigger,1\n"
	cases := []struct {
		name string
		csv  string
	}{
		{"empty", ""},
		{"bad header", "A,B\n"},
		{"bad trigger", header + "o,a,f,bogus,1\n"},
		{"bad count", header + "o,a,f,http,x\n"},
		{"negative count", header + "o,a,f,http,-1\n"},
		{"short row", header + "o,a,f,http\n"},
		{"long row", header + "o,a,f,http,1,2\n"},
		{"split app", header + "o,a,f1,http,1\no,b,f2,http,1\no,a,f3,http,1\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src, err := StreamInvocationsCSV(strings.NewReader(c.csv))
			if err != nil {
				return // header-level rejection is fine
			}
			for {
				_, err := src.Next()
				if err == io.EOF {
					t.Fatalf("case %q: streamed cleanly, want error", c.name)
				}
				if err != nil {
					// Errors are sticky.
					if _, err2 := src.Next(); err2 != err {
						t.Fatalf("case %q: error not sticky: %v then %v", c.name, err, err2)
					}
					return
				}
			}
		})
	}
}

// TestStreamErrorMessagesMatchBatch pins the row diagnostics both
// forms report: the failing line and the reason, and — the one
// behaviour the batch form lost when it became Collect over the stream
// — a HashApp whose rows are split is an error, not a silent regroup.
func TestStreamErrorMessagesMatchBatch(t *testing.T) {
	const header = "HashOwner,HashApp,HashFunction,Trigger,1\n"
	for _, c := range []struct{ name, csv, want string }{
		{"bad trigger", header + "o,a,f,http,1\no,b,g,bogus,2\n", "trace: line 3: "},
		{"split app", header + "o,a,f1,http,1\no,b,f2,http,1\no,a,f3,http,1\n",
			"trace: line 4: rows for app a are not contiguous"},
		// Hostile counts: the first used to panic in makeslice, the
		// second to wrap the total negative and decode as no invocations.
		{"huge count", header + "o,a,f,http,1\no,b,g,http,4000000000000000000\n",
			"trace: line 3: function has more than 2147483648 invocations"},
		{"overflowing sum", "HashOwner,HashApp,HashFunction,Trigger,1,2\no,a,f,http,9223372036854775807,9223372036854775807\n",
			"trace: line 2: function has more than 2147483648 invocations"},
	} {
		_, batchErr := collectCSV(strings.NewReader(c.csv))
		if batchErr == nil || !strings.HasPrefix(batchErr.Error(), c.want) {
			t.Errorf("%s: batch reader error %v, want prefix %q", c.name, batchErr, c.want)
		}
		src, err := StreamInvocationsCSV(strings.NewReader(c.csv))
		if err != nil {
			t.Fatal(err)
		}
		var streamErr error
		for streamErr == nil {
			_, streamErr = src.Next()
		}
		if streamErr == io.EOF || !strings.HasPrefix(streamErr.Error(), c.want) {
			t.Errorf("%s: stream reader error %v, want prefix %q", c.name, streamErr, c.want)
		}
	}
}

// TestStreamRowLongerThanBuffer: a row that does not fit the reader's
// buffer is accumulated across refills and decodes as the reference
// decodes it — zero runs, counts and a line end all falling on either
// side of a refill.
func TestStreamRowLongerThanBuffer(t *testing.T) {
	const minutes = 40000
	var b strings.Builder
	b.WriteString("HashOwner,HashApp,HashFunction,Trigger")
	for m := 1; m <= minutes; m++ {
		fmt.Fprintf(&b, ",%d", m)
	}
	for row, every := range []int{0, 7, 1, 16381} {
		fmt.Fprintf(&b, "\no,app%d,f,http", row/2)
		for m := 0; m < minutes; m++ {
			if every > 0 && m%every == 0 {
				fmt.Fprintf(&b, ",%d", 1+m%13)
			} else {
				b.WriteString(",0")
			}
		}
	}
	if b.Len() < 4*csvBufSize {
		t.Fatalf("table of %d bytes does not overflow the %d-byte buffer", b.Len(), csvBufSize)
	}
	requireMatchesReference(t, []byte(b.String()))
}

// drainSource consumes src discarding apps, returning the app count.
func drainSource(t *testing.T, src Source) int {
	t.Helper()
	n := 0
	for {
		_, err := src.Next()
		if err == io.EOF {
			return n
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
}

// TestStreamConstantMemory is the allocs-per-app regression test for
// the streaming path: the per-app allocation cost of draining a CSV
// must not grow with the number of apps in the trace (no hidden
// accumulation), and the live heap after a streaming drain must stay
// far below the materialized trace.
func TestStreamConstantMemory(t *testing.T) {
	_, small := syntheticCSVTrace(t, 40, 30, 4)
	_, large := syntheticCSVTrace(t, 160, 30, 4)

	perApp := func(data []byte) float64 {
		src, err := StreamInvocationsCSV(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n := drainSource(t, src)
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	}
	// Warm up pools/laziness once before measuring.
	perApp(small)

	smallPer := perApp(small)
	largePer := perApp(large)
	if largePer > 1.5*smallPer {
		t.Fatalf("allocs/app grew with trace size: %.0f B/app at 40 apps vs %.0f B/app at 160",
			smallPer, largePer)
	}

	// Live-heap check: after draining (holding no apps), the retained
	// memory must be a small fraction of what materializing retains.
	measureLive := func(f func() any) (retained uint64, keep any) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		keep = f()
		runtime.GC()
		runtime.ReadMemStats(&after)
		if after.HeapAlloc < before.HeapAlloc {
			return 0, keep
		}
		return after.HeapAlloc - before.HeapAlloc, keep
	}
	streamed, _ := measureLive(func() any {
		src, err := StreamInvocationsCSV(bytes.NewReader(large))
		if err != nil {
			t.Fatal(err)
		}
		drainSource(t, src)
		return src // retain only the source itself
	})
	materialized, tr := measureLive(func() any {
		tr, err := collectCSV(bytes.NewReader(large))
		if err != nil {
			t.Fatal(err)
		}
		return tr
	})
	_ = tr
	if materialized == 0 {
		t.Skip("GC accounting too noisy to compare")
	}
	if streamed > materialized/4 {
		t.Fatalf("streaming retained %d B, materialized %d B — not constant-memory", streamed, materialized)
	}
}
