package trace

import (
	"io"
	"testing"
	"time"
)

// sourceTrace builds a small deterministic trace for source tests.
func sourceTrace(apps int) *Trace {
	tr := &Trace{Duration: 30 * time.Minute}
	for i := 0; i < apps; i++ {
		id := string(rune('a' + i%26))
		if i >= 26 {
			id += string(rune('a' + i/26))
		}
		tr.Apps = append(tr.Apps, &App{
			ID:    "app" + id,
			Owner: "owner",
			Functions: []*Function{
				{ID: "fn" + id, Trigger: TriggerHTTP, Invocations: []float64{float64(i), float64(i) + 60}},
			},
		})
	}
	return tr
}

func TestTraceSourceYieldsInOrder(t *testing.T) {
	tr := sourceTrace(7)
	src := NewTraceSource(tr)
	if src.Horizon() != tr.Duration {
		t.Fatalf("horizon %v, want %v", src.Horizon(), tr.Duration)
	}
	for i := 0; i < 7; i++ {
		app, err := src.Next()
		if err != nil {
			t.Fatalf("app %d: %v", i, err)
		}
		if app != tr.Apps[i] {
			t.Fatalf("app %d: got %s, want %s", i, app.ID, tr.Apps[i].ID)
		}
	}
	if _, err := src.Next(); err != io.EOF {
		t.Fatalf("after drain: %v, want io.EOF", err)
	}
	// Drained sources keep returning io.EOF.
	if _, err := src.Next(); err != io.EOF {
		t.Fatalf("after second drain: %v, want io.EOF", err)
	}
}

// TestShardPartition verifies the n shards of a source partition it
// exactly: disjoint, order-preserving, covering.
func TestShardPartition(t *testing.T) {
	tr := sourceTrace(23)
	const n = 4
	var got []string
	perShard := make([][]string, n)
	for i := 0; i < n; i++ {
		sh := Shard(NewTraceSource(tr), i, n)
		if sh.Horizon() != tr.Duration {
			t.Fatalf("shard horizon %v", sh.Horizon())
		}
		for {
			app, err := sh.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			perShard[i] = append(perShard[i], app.ID)
		}
	}
	// Interleave back: shard i holds apps i, i+n, i+2n, ...
	for k := 0; k < len(tr.Apps); k++ {
		got = append(got, perShard[k%n][k/n])
	}
	for k, app := range tr.Apps {
		if got[k] != app.ID {
			t.Fatalf("reassembled[%d] = %s, want %s", k, got[k], app.ID)
		}
	}
}

func TestShardSingle(t *testing.T) {
	tr := sourceTrace(3)
	src := NewTraceSource(tr)
	if sh := Shard(src, 0, 1); sh != Source(src) {
		t.Fatal("Shard(src, 0, 1) should be the identity")
	}
}

func TestShardBadArgsPanics(t *testing.T) {
	for _, c := range []struct{ i, n int }{{0, 0}, {-1, 2}, {2, 2}, {5, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Shard(src, %d, %d) did not panic", c.i, c.n)
				}
			}()
			Shard(NewTraceSource(sourceTrace(1)), c.i, c.n)
		}()
	}
}

func TestCollectRoundTrip(t *testing.T) {
	tr := sourceTrace(9)
	back, err := Collect(NewTraceSource(tr))
	if err != nil {
		t.Fatal(err)
	}
	if back.Duration != tr.Duration || len(back.Apps) != len(tr.Apps) {
		t.Fatalf("collected %d apps over %v", len(back.Apps), back.Duration)
	}
	for i := range tr.Apps {
		if back.Apps[i] != tr.Apps[i] {
			t.Fatalf("app %d differs", i)
		}
	}
}

func TestParseShard(t *testing.T) {
	good := []struct {
		in   string
		i, n int
	}{{"0/1", 0, 1}, {"2/8", 2, 8}, {"7/8", 7, 8}}
	for _, c := range good {
		i, n, err := ParseShard(c.in)
		if err != nil || i != c.i || n != c.n {
			t.Errorf("ParseShard(%q) = %d, %d, %v; want %d, %d", c.in, i, n, err, c.i, c.n)
		}
	}
	for _, in := range []string{"", "/", "1", "1/", "/2", "2/2", "-1/2", "1/0", "1/2x3", "1/23abc", "a/b", "1 /2"} {
		if _, _, err := ParseShard(in); err == nil {
			t.Errorf("ParseShard(%q) accepted", in)
		}
	}
}
