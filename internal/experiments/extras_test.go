package experiments

import (
	"slices"
	"strconv"
	"testing"
)

func TestFigure12Gallery(t *testing.T) {
	pop := testPop(t)
	f := Figure12(pop)
	if len(f.Series) != 9 {
		t.Fatalf("series = %d, want 9", len(f.Series))
	}
	for _, s := range f.Series {
		if len(s.Points) != 31 {
			t.Fatalf("%s: points = %d, want 31", s.Name, len(s.Points))
		}
		var peak float64
		for _, p := range s.Points {
			if p.Y < 0 || p.Y > 1 {
				t.Fatalf("%s: unnormalized point %v", s.Name, p)
			}
			if p.Y > peak {
				peak = p.Y
			}
		}
		if peak != 1 {
			t.Fatalf("%s: peak = %v, want 1", s.Name, peak)
		}
	}
	if len(f.Notes) == 0 {
		t.Fatal("expected concentration note")
	}
}

func TestForecasterAblation(t *testing.T) {
	f := section5Figure(t, "figure-19b")
	if len(f.Table) != 5 { // header + none + 3 forecasters
		t.Fatalf("rows = %d", len(f.Table))
	}
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	var none, arima float64
	for _, row := range f.Table[1:] {
		switch row[0] {
		case "none (standard fallback)":
			none = parse(row[2])
		case "arima":
			arima = parse(row[2])
			// The arima row is the default hybrid: Figure 19's full
			// hybrid row, value for value.
			full := section5Figure(t, "figure-19").Table[3]
			if !slices.Equal(row[1:], full[1:]) {
				t.Errorf("arima row %v, Figure 19's full hybrid %v", row, full)
			}
		}
	}
	if arima > none {
		t.Fatalf("ARIMA always-cold %.2f should not exceed no-forecast %.2f", arima, none)
	}
}

func TestRangeSweep(t *testing.T) {
	f := section5Figure(t, "extra-range-sweep")
	if len(f.Table) != 6 {
		t.Fatalf("rows = %d", len(f.Table))
	}
	// Cold starts must not increase with range.
	prev := 1e9
	for _, p := range f.Series[0].Points {
		if p.X > prev+1e-9 {
			t.Fatalf("coldQ3 increased with range: %v", f.Series[0].Points)
		}
		prev = p.X
	}
}
