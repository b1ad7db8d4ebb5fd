package trace

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"
	"time"
)

func sampleTrace() *Trace {
	return &Trace{
		Duration: 3 * time.Minute,
		Apps: []*App{
			{
				ID: "app1", Owner: "own1", MemoryMB: 170.5,
				Functions: []*Function{
					{
						ID: "fn1", Trigger: TriggerHTTP,
						Invocations: []float64{10, 70, 71, 130},
						ExecStats:   ExecStats{AvgSeconds: 0.5, MinSeconds: 0.1, MaxSeconds: 2, Count: 4},
					},
					{
						ID: "fn2", Trigger: TriggerTimer,
						Invocations: []float64{0, 60, 120},
						ExecStats:   ExecStats{AvgSeconds: 1.5, MinSeconds: 1, MaxSeconds: 2, Count: 3},
					},
				},
			},
			{
				ID: "app2", Owner: "own2", MemoryMB: 64,
				Functions: []*Function{
					{ID: "fn3", Trigger: TriggerQueue, Invocations: []float64{100}},
				},
			},
		},
	}
}

// collectCSV is what a binary does with a whole invocations table:
// Collect over the stream reader.
func collectCSV(r io.Reader) (*Trace, error) {
	src, err := StreamInvocationsCSV(r)
	if err != nil {
		return nil, err
	}
	return Collect(src)
}

func TestInvocationsCSVRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteInvocationsCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := collectCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Duration != tr.Duration {
		t.Fatalf("duration = %v", got.Duration)
	}
	if len(got.Apps) != 2 {
		t.Fatalf("apps = %d", len(got.Apps))
	}
	if got.TotalInvocations() != tr.TotalInvocations() {
		t.Fatalf("invocations = %d, want %d", got.TotalInvocations(), tr.TotalInvocations())
	}
	// Function identity, grouping, and triggers survive.
	app1 := got.Apps[0]
	if app1.ID != "app1" || app1.Owner != "own1" || len(app1.Functions) != 2 {
		t.Fatalf("app1 = %+v", app1)
	}
	if app1.Functions[0].Trigger != TriggerHTTP || app1.Functions[1].Trigger != TriggerTimer {
		t.Fatal("triggers lost")
	}
	// Minute-level counts survive exactly.
	origCounts := MinuteCounts(tr.Apps[0].Functions[0].Invocations, tr.Duration)
	gotCounts := MinuteCounts(got.Apps[0].Functions[0].Invocations, got.Duration)
	for i := range origCounts {
		if origCounts[i] != gotCounts[i] {
			t.Fatalf("minute %d: %d != %d", i, gotCounts[i], origCounts[i])
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("reconstructed trace invalid: %v", err)
	}
}

func TestReadInvocationsSpacesWithinMinute(t *testing.T) {
	csvData := "HashOwner,HashApp,HashFunction,Trigger,1,2\n" +
		"o,a,f,http,3,0\n"
	tr, err := collectCSV(strings.NewReader(csvData))
	if err != nil {
		t.Fatal(err)
	}
	inv := tr.Apps[0].Functions[0].Invocations
	if len(inv) != 3 {
		t.Fatalf("len = %d", len(inv))
	}
	// Evenly spaced: 0, 20, 40.
	if inv[0] != 0 || inv[1] != 20 || inv[2] != 40 {
		t.Fatalf("timestamps = %v", inv)
	}
}

func TestReadInvocationsErrors(t *testing.T) {
	cases := []string{
		"",      // no header
		"A,B\n", // malformed header
		"HashOwner,HashApp,HashFunction,Trigger,1\no,a,f,bogus,1\n",  // bad trigger
		"HashOwner,HashApp,HashFunction,Trigger,1\no,a,f,http,x\n",   // bad count
		"HashOwner,HashApp,HashFunction,Trigger,1\no,a,f,http,-1\n",  // negative count
		"HashOwner,HashApp,HashFunction,Trigger,1,2\no,a,f,http,1\n", // short row
	}
	for i, data := range cases {
		if _, err := collectCSV(strings.NewReader(data)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// TestDurationsCSVRoundTrip pins the durations table tracegen writes:
// milliseconds at three decimals, one row per function.
func TestDurationsCSVRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteDurationsCSV(&buf, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	want := "HashOwner,HashApp,HashFunction,Average,Count,Minimum,Maximum\n" +
		"own1,app1,fn1,500.000,4,100.000,2000.000\n" +
		"own1,app1,fn2,1500.000,3,1000.000,2000.000\n" +
		"own2,app2,fn3,0.000,0,0.000,0.000\n"
	if got := buf.String(); got != want {
		t.Fatalf("durations table:\n%s\nwant:\n%s", got, want)
	}
}

func TestMemoryCSVRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteMemoryCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	fresh := sampleTrace()
	for _, app := range fresh.Apps {
		app.MemoryMB = 0
	}
	if defaulted, err := applyMemory(&buf, fresh); err != nil || defaulted != 0 {
		t.Fatalf("defaulted=%d err=%v", defaulted, err)
	}
	if fresh.Apps[0].MemoryMB != 170.5 {
		t.Fatalf("memory = %v", fresh.Apps[0].MemoryMB)
	}
	if fresh.Apps[1].MemoryMB != 64 {
		t.Fatalf("memory = %v", fresh.Apps[1].MemoryMB)
	}
}

func TestApplyMemoryCSVDefault(t *testing.T) {
	// A table covering only the first app: the second must take the
	// default and be counted.
	csvData := "HashOwner,HashApp,SampleCount,AverageAllocatedMb\n" +
		"own1,app1,10,512\n"
	tr := sampleTrace()
	for _, app := range tr.Apps {
		app.MemoryMB = 0
	}
	defaulted, err := applyMemory(strings.NewReader(csvData), tr)
	if err != nil {
		t.Fatal(err)
	}
	if defaulted != len(tr.Apps)-1 {
		t.Fatalf("defaulted = %d, want %d", defaulted, len(tr.Apps)-1)
	}
	if tr.Apps[0].MemoryMB != 512 {
		t.Fatalf("covered app memory = %v, want 512", tr.Apps[0].MemoryMB)
	}
	for _, app := range tr.Apps[1:] {
		if app.MemoryMB != DefaultAppMemoryMB {
			t.Fatalf("app %s memory = %v, want the %v default", app.ID, app.MemoryMB, float64(DefaultAppMemoryMB))
		}
	}

	// Full coverage defaults nothing.
	tr = sampleTrace()
	var buf bytes.Buffer
	if err := WriteMemoryCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	table := buf.String()
	if defaulted, err = applyMemory(strings.NewReader(table), tr); err != nil || defaulted != 0 {
		t.Fatalf("full table: defaulted=%d err=%v", defaulted, err)
	}
}

// TestApplyMemoryRejectsBadValues: a NaN row used to poison a node's
// resident-MB comparisons, and a negative one was silently charged the
// default without being counted. Both are errors naming the line, as
// is a row too short to hold the value; a zero row still means "no
// data" and takes the default.
func TestApplyMemoryRejectsBadValues(t *testing.T) {
	for _, v := range []string{"NaN", "nan", "Inf", "+Inf", "-Inf", "infinity", "-500", "-0.01"} {
		table := "HashOwner,HashApp,SampleCount,AverageAllocatedMb\n" +
			"own1,app1,10,512\n" +
			"own2,app2,10," + v + "\n"
		_, err := ReadMemoryCSV(strings.NewReader(table))
		if err == nil || !strings.Contains(err.Error(), "line 3") {
			t.Errorf("value %q: err = %v, want an error naming line 3", v, err)
		}
	}
	if _, err := ReadMemoryCSV(strings.NewReader("HashOwner,HashApp,SampleCount,AverageAllocatedMb\nown2,app2\n")); err == nil ||
		!strings.Contains(err.Error(), "line 2") {
		t.Errorf("short row: err = %v, want an error naming line 2", err)
	}
	table := "HashOwner,HashApp,SampleCount,AverageAllocatedMb\nown2,app2,10,0\n"
	tr := sampleTrace()
	defaulted, err := applyMemory(strings.NewReader(table), tr)
	if err != nil || tr.Apps[1].MemoryMB != DefaultAppMemoryMB || defaulted != 1 {
		t.Fatalf("zero row: defaulted=%d memory=%v err=%v, want 1, the default, nil", defaulted, tr.Apps[1].MemoryMB, err)
	}
}

func TestApplyMemoryMissingColumn(t *testing.T) {
	if _, err := ReadMemoryCSV(strings.NewReader("X,Y\n")); err == nil {
		t.Fatal("expected error for missing columns")
	}
}

// applyMemory reads a memory table and applies it to tr (which is
// not to be read after an error).
func applyMemory(r io.Reader, tr *Trace) (int, error) {
	table, err := ReadMemoryCSV(r)
	return table.Apply(tr), err
}

func TestSortAppsByID(t *testing.T) {
	tr := &Trace{Apps: []*App{{ID: "b"}, {ID: "a"}, {ID: "c"}}}
	SortAppsByID(tr)
	if tr.Apps[0].ID != "a" || tr.Apps[2].ID != "c" {
		t.Fatalf("order = %v %v %v", tr.Apps[0].ID, tr.Apps[1].ID, tr.Apps[2].ID)
	}
}

// refWriteInvocationsCSV is the writer WriteInvocationsCSV replaced,
// every field through a csv.Writer: the reference its output is pinned
// to byte for byte.
func refWriteInvocationsCSV(w io.Writer, tr *Trace) error {
	cw := csv.NewWriter(w)
	minutes := int(tr.Duration.Minutes())
	row := []string{"HashOwner", "HashApp", "HashFunction", "Trigger"}
	for m := 1; m <= minutes; m++ {
		row = append(row, strconv.Itoa(m))
	}
	if err := cw.Write(row); err != nil {
		return err
	}
	for _, app := range tr.Apps {
		for _, fn := range app.Functions {
			row[0], row[1], row[2], row[3] = app.Owner, app.ID, fn.ID, fn.Trigger.String()
			for m, n := range MinuteCounts(fn.Invocations, tr.Duration) {
				row[4+m] = strconv.Itoa(n)
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// TestWriteInvocationsCSVQuoting: the row builder quotes IDs exactly as
// encoding/csv does (it is encoding/csv that quotes them), with and
// without count columns, and what it writes streams back — through the
// reader's quote fallback — to the trace that was written.
func TestWriteInvocationsCSVQuoting(t *testing.T) {
	ids := []string{"a,b", `say "hi"`, " lead", "two\nlines", "", "plain", "cr\rmid", `\.`, "ünï"}
	for _, minutes := range []int{0, 1, 11} {
		tr := &Trace{Duration: time.Duration(minutes) * time.Minute}
		for i, id := range ids {
			app := &App{ID: id, Owner: ids[(i+1)%len(ids)]}
			for f := 0; f < 1+i%2; f++ {
				fn := &Function{ID: ids[(i+f+2)%len(ids)], Trigger: TriggerType(i % NumTriggers)}
				for m := f; m < minutes; m += 1 + i {
					fn.Invocations = SpreadMinute(fn.Invocations, m, 1+12*i)
				}
				app.Functions = append(app.Functions, fn)
			}
			tr.Apps = append(tr.Apps, app)
		}
		var got, want bytes.Buffer
		if err := WriteInvocationsCSV(&got, tr); err != nil {
			t.Fatal(err)
		}
		if err := refWriteInvocationsCSV(&want, tr); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%d minutes: wrote\n%s\nencoding/csv writes\n%s", minutes, got.Bytes(), want.Bytes())
		}
		if minutes == 0 {
			continue // a table without count columns has no reader
		}
		back, err := collectCSV(&got)
		if err != nil {
			t.Fatal(err)
		}
		requireSameTrace(t, fmt.Sprintf("%d minutes", minutes), back, tr)
	}
}
