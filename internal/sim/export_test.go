package sim

import (
	"sync/atomic"

	"repro/internal/sim/kernel"
)

// CountScratches makes every walker scratch built from now on count
// towards the returned counter; restore puts the plain builder back.
func CountScratches() (built *atomic.Int64, restore func()) {
	built = new(atomic.Int64)
	orig := newScratch
	newScratch = func() *kernel.Scratch {
		built.Add(1)
		return orig()
	}
	return built, func() { newScratch = orig }
}
