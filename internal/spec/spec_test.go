package spec

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestKnownTracksAccessedKeys pins that Known reports every key a
// typed accessor asked for — present in the query or not — so
// registries can list a builder's vocabulary in unknown-key errors.
func TestKnownTracksAccessedKeys(t *testing.T) {
	p, err := parse("ka=10m&typo=1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Duration("ka", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Bool("absent", true); err != nil {
		t.Fatal(err)
	}
	if got, want := p.Known(), []string{"absent", "ka"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Known() = %v, want %v", got, want)
	}
	if got, want := p.Unused(), []string{"typo"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Unused() = %v, want %v", got, want)
	}
}

// TestKnownEmptyBeforeAccess pins the zero state: no accessor calls,
// no known keys.
func TestKnownEmptyBeforeAccess(t *testing.T) {
	p, err := parse("a=1")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Known(); len(got) != 0 {
		t.Errorf("Known() before any accessor = %v, want empty", got)
	}
}

// TestAccessorsStillConsume pins that adding known-key tracking did
// not change the consume semantics Unused depends on.
func TestAccessorsStillConsume(t *testing.T) {
	p, err := parse("d=5m&f=1.5&i=3&b=on&s=x&u=7&l=1:2")
	if err != nil {
		t.Fatal(err)
	}
	if d, err := p.Duration("d", 0); err != nil || d != 5*time.Minute {
		t.Errorf("Duration = %v, %v", d, err)
	}
	if f, err := p.Float("f", 0); err != nil || f != 1.5 {
		t.Errorf("Float = %v, %v", f, err)
	}
	if i, err := p.Int("i", 0); err != nil || i != 3 {
		t.Errorf("Int = %v, %v", i, err)
	}
	if b, err := p.Bool("b", false); err != nil || !b {
		t.Errorf("Bool = %v, %v", b, err)
	}
	if s := p.String("s", ""); s != "x" {
		t.Errorf("String = %v", s)
	}
	if u, err := p.Uint64("u", 0); err != nil || u != 7 {
		t.Errorf("Uint64 = %v, %v", u, err)
	}
	if l, err := p.Floats("l", nil); err != nil || !reflect.DeepEqual(l, []float64{1, 2}) {
		t.Errorf("Floats = %v, %v", l, err)
	}
	if left := p.Unused(); len(left) != 0 {
		t.Errorf("Unused() = %v, want empty", left)
	}
}

// TestFloatRejectsNaN pins that a NaN read from a spec is an error in
// both float accessors (it would pass every builder's range check),
// while a NaN default, which callers use to mark "absent", is returned.
func TestFloatRejectsNaN(t *testing.T) {
	for _, q := range []string{"f=NaN", "f=nan", "l=NaN", "l=1:nan"} {
		p, err := parse(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err = p.Float("f", 0); err == nil {
			_, err = p.Floats("l", nil)
		}
		if err == nil || !strings.Contains(err.Error(), "NaN is not") {
			t.Errorf("%q: error %v, want one naming NaN", q, err)
		}
	}
	p, err := parse("")
	if err != nil {
		t.Fatal(err)
	}
	if f, err := p.Float("mem", math.NaN()); err != nil || !math.IsNaN(f) {
		t.Errorf("absent key with a NaN default = %v, %v", f, err)
	}
}
