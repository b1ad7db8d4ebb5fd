package forecast

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"repro/internal/arima"
)

// FuzzPredictNext: every forecaster, on any series of float64s (the
// input's bytes read eight at a time, little-endian), either declines
// or returns a finite prediction above zero — the hybrid policy turns
// it into a time.Duration — and is pure: the same series twice gives
// the same bits and the same ok, and the series is left as it was. The
// forecast memo's exactness rests on that purity. The seed corpus under
// testdata/fuzz holds a constant series, one and two points, 1e12
// magnitudes, +Inf, -Inf, NaN, and values near math.MaxFloat64.
func FuzzPredictNext(f *testing.F) {
	forecasters := []Forecaster{
		ARIMA{Options: arima.Options{MaxP: 2, MaxD: 1, MaxQ: 1}}, // the hybrid policy's default
		ExpSmoothing{},
		ExpSmoothing{MinSamples: 1}, // still needs two points for its trend
		Mean{},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		series := make([]float64, min(len(data)/8, 128))
		for i := range series {
			series[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		orig := slices.Clone(series)
		for _, fc := range forecasters {
			pred, ok := fc.PredictNext(series)
			if ok && (!(pred > 0) || math.IsInf(pred, 1)) {
				t.Fatalf("%s: ok with prediction %v on %v", fc.Name(), pred, orig)
			}
			again, okAgain := fc.PredictNext(series)
			if okAgain != ok || math.Float64bits(again) != math.Float64bits(pred) {
				t.Fatalf("%s: %v, %v then %v, %v on the same series %v", fc.Name(), pred, ok, again, okAgain, orig)
			}
			for i := range series {
				if math.Float64bits(series[i]) != math.Float64bits(orig[i]) {
					t.Fatalf("%s: modified the series at %d: %v -> %v", fc.Name(), i, orig[i], series[i])
				}
			}
		}
	})
}
