package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// The fixture suites: each analyzer against a package with at least
// one true positive (a `// want` line) and one true negative (a
// diagnostic-free construct in the same contract's blast radius).

func TestDeterminismFixture(t *testing.T) {
	RunFixture(t, Determinism, "repro/internal/sim/detfix")
}

// TestDeterminismScope: the map-iteration rule stops at the
// deterministic-path boundary — a map range in an unrelated package
// is not a finding.
func TestDeterminismScope(t *testing.T) {
	RunFixture(t, Determinism, "plainfix")
}

// TestAnnotationChecks covers the "checked annotation" half of the
// grammar: a stale opt-out and an unknown verb are both findings.
func TestAnnotationChecks(t *testing.T) {
	l := newFixtureLoader(filepath.Join("testdata", "src"), ".")
	pkg, err := l.load("annotfix")
	if err != nil {
		t.Fatalf("loading annotfix: %v", err)
	}
	diags, err := RunAnalyzers([]*Package{pkg}, All())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2:\n%v", len(diags), diags)
	}
	wantSubstrings := []string{
		"unused wildlint annotation //wildlint:allow wallclock",
		`unknown wildlint annotation "nonsense"`,
	}
	for i, want := range wantSubstrings {
		if !strings.Contains(diags[i].Message, want) {
			t.Errorf("diagnostic %d = %q, want substring %q", i, diags[i].Message, want)
		}
	}
}

// TestByName keeps the -run flag's name space aligned with All().
func TestByName(t *testing.T) {
	for _, a := range All() {
		if ByName(a.Name) != a {
			t.Errorf("ByName(%q) does not resolve to the registered analyzer", a.Name)
		}
	}
	// Analyzers that no longer exist must be unknown names, so
	// `wildlint -run release` is a usage error (exit 2) and not a run
	// that checks nothing.
	for _, name := range []string{"nope", "oblivious", "release", "sinkcontract", "specparams"} {
		if ByName(name) != nil {
			t.Errorf("ByName(%q) is non-nil", name)
		}
	}
}

// TestTreeClean runs the whole suite over the repository: the tree
// must stay wildlint-clean, so a regression fails `go test ./...`
// and not just the CI lint job.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the full module")
	}
	pkgs, err := LoadPackages("../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags, err := RunAnalyzers(pkgs, All())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
