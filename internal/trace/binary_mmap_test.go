//go:build unix

package trace_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

// TestBinaryMappingTruncated shrinks a trace file under its mapping:
// reads past the new end fault, and Collect must turn the fault into an
// error instead of dying of SIGBUS.
func TestBinaryMappingTruncated(t *testing.T) {
	data := encode(t, mixedApps(3000))
	if len(data) < 64<<10 {
		t.Fatalf("trace of %d bytes is too small to outgrow its first pages", len(data))
	}
	path := filepath.Join(t.TempDir(), "trace.bin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := trace.OpenBinaryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if err := os.Truncate(path, 4<<10); err != nil {
		t.Fatal(err)
	}
	_, err = trace.Collect(src)
	if err == nil || !strings.Contains(err.Error(), "changed while mapped") {
		t.Fatalf("Collect over a truncated mapping: %v, want the mapping-changed error", err)
	}
}
