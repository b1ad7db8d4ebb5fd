package scenario

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/arima"
	"repro/internal/forecast"
)

// countingForecaster is the hybrid policy's default ARIMA search with a
// tally of the series it is asked to fit, keyed by their exact bits.
type countingForecaster struct {
	inner forecast.Forecaster
	mu    sync.Mutex
	fits  map[string]int
}

func newCountingForecaster() *countingForecaster {
	return &countingForecaster{
		inner: forecast.ARIMA{Options: arima.Options{MaxP: 2, MaxD: 1, MaxQ: 1}},
		fits:  map[string]int{},
	}
}

func (c *countingForecaster) Name() string { return c.inner.Name() }

func (c *countingForecaster) PredictNext(series []float64) (float64, bool) {
	var key strings.Builder
	for _, v := range series {
		b := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			key.WriteByte(byte(b >> (8 * i)))
		}
	}
	c.mu.Lock()
	c.fits[key.String()]++
	c.mu.Unlock()
	return c.inner.PredictNext(series)
}

// total returns the number of fits and of distinct series fitted.
func (c *countingForecaster) total() (fits, distinct int) {
	for _, n := range c.fits {
		fits += n
	}
	return fits, len(c.fits)
}

// TestSweepFitsEachSeriesOnce pins the sweep's forecast memo on three
// hybrid variants that reach the ARIMA path over one generated
// population: run as one sweep, each cell's report is byte for byte
// the report of that cell run as its own sweep, and of the cell run
// with no memo at all; and the default forecaster runs exactly once per
// distinct idle-time series, fewer times than the three cells fit on
// their own.
func TestSweepFitsEachSeriesOnce(t *testing.T) {
	// Two cells run at once, so single flight is exercised.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	g, err := ParseGrid("source=gen:apps=100&days=3&seed=3&maxrate=300&maxevents=800; " +
		"policy=[hybrid,hybrid?range=2h,hybrid?exact=off&refit=1m]")
	if err != nil {
		t.Fatal(err)
	}
	cells, err := g.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	defer func(orig func() *forecast.Memo) { newForecastMemo = orig }(newForecastMemo)
	// Every memo made during a counted sweep feeds one tally, so a memo
	// per cell instead of per sweep shows up as repeated fits.
	var counter *countingForecaster
	counted := func() *forecast.Memo { return forecast.NewMemo(counter) }
	sweep := func(cells []Scenario) *SweepReport {
		t.Helper()
		rep, err := RunSweep(context.Background(), cells)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	cellJSON := func(c *CellResult) string {
		t.Helper()
		var buf bytes.Buffer
		if err := (&SweepReport{Cells: []*CellResult{c}}).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	solo := make([]string, len(cells))
	soloFits := 0
	for i, sc := range cells {
		newForecastMemo = func() *forecast.Memo { return nil }
		unmemoized := cellJSON(sweep([]Scenario{sc}).Cells[0])
		newForecastMemo, counter = counted, newCountingForecaster()
		solo[i] = cellJSON(sweep([]Scenario{sc}).Cells[0])
		if solo[i] != unmemoized {
			t.Fatalf("cell %d (%s): memoized report differs from the unmemoized one:\n%s\nvs\n%s",
				i, sc, solo[i], unmemoized)
		}
		fits, distinct := counter.total()
		if fits != distinct {
			t.Errorf("cell %d (%s) alone: %d fits for %d distinct series", i, sc, fits, distinct)
		}
		soloFits += fits
	}

	counter = newCountingForecaster()
	rep := sweep(cells)
	for i, c := range rep.Cells {
		if got := cellJSON(c); got != solo[i] {
			t.Errorf("cell %d (%s): report in the sweep differs from the cell's own sweep:\n%s\nvs\n%s",
				i, cells[i], got, solo[i])
		}
	}
	fits, distinct := counter.total()
	if fits != distinct {
		t.Errorf("sweep: %d fits for %d distinct series, want one fit each", fits, distinct)
	}
	if distinct == 0 || fits >= soloFits {
		t.Errorf("sweep fitted %d series, the cells alone %d: want 0 < sweep < alone", fits, soloFits)
	}
	t.Logf("fits: %d in one sweep, %d over the cells' own sweeps", fits, soloFits)
}
