package serve_test

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/trace"
)

// testEpoch is the anchor of the recorders recordRandom drives.
var testEpoch = time.Unix(0, 0).UTC()

// recordRandom drives a recorder (anchored at testEpoch) with a seeded
// synthetic stream and returns how many events were recorded.
func recordRandom(r *serve.Recorder, seed uint64, apps, fns, events int) int {
	rng := stats.NewRNG(seed)
	for i := 0; i < events; i++ {
		a := rng.Intn(apps)
		app := fmt.Sprintf("app%02d", a)
		fn := fmt.Sprintf("%s-fn%d", app, rng.Intn(fns))
		at := testEpoch.Add(time.Duration(rng.Float64() * float64(2*time.Hour)))
		r.Record(app, fn, at)
	}
	return events
}

// TestBundleRoundTripBitIdentical is the acceptance property: a
// recorded stream written as a bundle and read back is bit-identical
// to the recorder's own trace — same apps, functions, triggers, and
// invocation timestamps — because bundle rows go through the same CSV
// row codec as any dataset trace. Checked across seeds, and doubly
// via the serialized form: the bundle body is the plain codec's
// output byte for byte.
func TestBundleRoundTripBitIdentical(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		rec := serve.NewRecorder(testEpoch)
		n := recordRandom(rec, seed, 6, 3, 500)
		if got := rec.Invocations(); got != int64(n) {
			t.Fatalf("seed %d: Invocations() = %d, want %d", seed, got, n)
		}

		var buf bytes.Buffer
		if err := rec.WriteBundle(&buf, "round-trip", 0); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()

		meta, tr := collectBundle(t, bytes.NewReader(raw))
		if meta.Name != "round-trip" || meta.Version != serve.BundleVersion {
			t.Fatalf("seed %d: meta = %+v", seed, meta)
		}
		if meta.Invocations != n {
			t.Fatalf("seed %d: meta.Invocations = %d, want %d", seed, meta.Invocations, n)
		}

		want := rec.Trace(0)
		sameTrace(t, tr, want)

		body := raw[bytes.IndexByte(raw, '\n')+1:]

		// Byte-level: the bundle body is exactly the plain codec's
		// output — the bundle adds a header, nothing else.
		var plain bytes.Buffer
		if err := trace.WriteInvocationsCSV(&plain, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, plain.Bytes()) {
			t.Fatalf("seed %d: bundle body differs from WriteInvocationsCSV output", seed)
		}
	}
}

// collectBundle reads a whole bundle the way the "bundle:" source
// does: StreamBundle, then trace.Collect.
func collectBundle(t *testing.T, r io.Reader) (serve.BundleMeta, *trace.Trace) {
	t.Helper()
	meta, src, err := serve.StreamBundle(r)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	return meta, tr
}

func sameTrace(t *testing.T, got, want *trace.Trace) {
	t.Helper()
	if got.Duration != want.Duration {
		t.Fatalf("Duration %v, want %v", got.Duration, want.Duration)
	}
	if len(got.Apps) != len(want.Apps) {
		t.Fatalf("%d apps, want %d", len(got.Apps), len(want.Apps))
	}
	for i, app := range got.Apps {
		wapp := want.Apps[i]
		if app.ID != wapp.ID || app.Owner != wapp.Owner {
			t.Fatalf("app %d: %s/%s, want %s/%s", i, app.Owner, app.ID, wapp.Owner, wapp.ID)
		}
		if len(app.Functions) != len(wapp.Functions) {
			t.Fatalf("app %s: %d functions, want %d", app.ID, len(app.Functions), len(wapp.Functions))
		}
		for j, fn := range app.Functions {
			wfn := wapp.Functions[j]
			if fn.ID != wfn.ID || fn.Trigger != wfn.Trigger {
				t.Fatalf("fn %s/%s: trigger %v, want %s/%v", app.ID, fn.ID, fn.Trigger, wfn.ID, wfn.Trigger)
			}
			if len(fn.Invocations) != len(wfn.Invocations) {
				t.Fatalf("fn %s: %d invocations, want %d", fn.ID, len(fn.Invocations), len(wfn.Invocations))
			}
			for k := range fn.Invocations {
				if fn.Invocations[k] != wfn.Invocations[k] {
					t.Fatalf("fn %s invocation %d: %v, want %v (timestamps must be bit-identical)",
						fn.ID, k, fn.Invocations[k], wfn.Invocations[k])
				}
			}
		}
	}
}

// TestBundleHorizonTruncates pins the horizon rule: a nonzero horizon
// bounds the minute columns, dropping later events.
func TestBundleHorizonTruncates(t *testing.T) {
	rec := serve.NewRecorder(testEpoch)
	rec.Record("a", "a-fn", testEpoch.Add(30*time.Second))
	rec.Record("a", "a-fn", testEpoch.Add(10*time.Minute))
	var buf bytes.Buffer
	if err := rec.WriteBundle(&buf, "short", 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	meta, tr := collectBundle(t, &buf)
	if meta.Minutes != 5 || meta.Invocations != 1 {
		t.Fatalf("meta = %+v, want 5 minutes / 1 invocation", meta)
	}
	if got := tr.Apps[0].Functions[0].Invocations; len(got) != 1 {
		t.Fatalf("invocations = %v, want exactly the pre-horizon event", got)
	}
}

// TestRecorderDropsEarlyEvents pins the epoch rule: pre-epoch events
// are dropped and surfaced in the header's early_dropped count.
func TestRecorderDropsEarlyEvents(t *testing.T) {
	epoch := time.Unix(86400, 0).UTC()
	rec := serve.NewRecorder(epoch)
	rec.Record("a", "a-fn", epoch.Add(-time.Second))
	rec.Record("a", "a-fn", epoch.Add(time.Second))
	if got := rec.Invocations(); got != 1 {
		t.Fatalf("Invocations() = %d, want 1", got)
	}
	var buf bytes.Buffer
	if err := rec.WriteBundle(&buf, "early", 0); err != nil {
		t.Fatal(err)
	}
	meta, _ := collectBundle(t, &buf)
	if meta.Early != 1 || meta.Invocations != 1 {
		t.Fatalf("meta = %+v, want Early=1 Invocations=1", meta)
	}
	if meta.Epoch != epoch.Format(time.RFC3339) {
		t.Fatalf("meta.Epoch = %q, want %q", meta.Epoch, epoch.Format(time.RFC3339))
	}
}

// TestReadBundleRejectsBadHeaders covers StreamBundle's header error
// paths: garbage instead of JSON, and a version from the future.
func TestReadBundleRejectsBadHeaders(t *testing.T) {
	cases := map[string]string{
		"garbage":        "HashOwner,HashApp,HashFunction,Trigger,1\n",
		"empty":          "",
		"future version": `{"version":2,"minutes":1}` + "\n",
	}
	for name, in := range cases {
		if _, _, err := serve.StreamBundle(strings.NewReader(in)); err == nil {
			t.Fatalf("%s: StreamBundle accepted %q", name, in)
		}
	}
	if _, _, err := serve.StreamBundle(strings.NewReader(`{"version":2,"minutes":1}` + "\n")); err == nil ||
		!strings.Contains(err.Error(), "version 2 unsupported") {
		t.Fatalf("future-version error = %v, want version complaint", err)
	}
}
