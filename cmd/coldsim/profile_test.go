package main

import (
	"context"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/scenario"
)

// TestProfiles runs a small sweep under -cpuprofile and -memprofile and
// checks that each writes a non-empty profile go tool pprof reads.
func TestProfiles(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to read the profiles with")
	}
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	stop, err := startProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	g, err := scenario.ParseGrid("source=gen:apps=60&days=1&seed=3; policy=[fixed?ka=10m,hybrid]")
	if err != nil {
		t.Fatal(err)
	}
	cells, err := g.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	runErr := runRaw(context.Background(), "csv", cells, scenario.RunSweep, io.Discard)
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Fatalf("%s: %v, want a non-empty profile", filepath.Base(path), err)
		}
		if out, err := exec.Command(goBin, "tool", "pprof", "-raw", path).CombinedOutput(); err != nil {
			t.Fatalf("go tool pprof %s: %v\n%s", filepath.Base(path), err, out)
		}
	}
}
