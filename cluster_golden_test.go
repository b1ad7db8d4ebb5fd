package wild

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// TestClusterGoldenEquivalence pins the kernel-extraction contract on
// the golden scenarios themselves: an infinite-capacity single-node
// cluster run must be bit-identical to sim.Simulate — same cold
// starts, same IEEE-754 wasted-seconds bits, same per-mode
// attribution, app by app — because the cluster timeline consumes the
// same extracted decision-walk kernel. Any divergence here means the
// refactor changed semantics, not just structure.
func TestClusterGoldenEquivalence(t *testing.T) {
	pop := goldenPopulation(t)
	for _, sc := range goldenScenarios() {
		want := sim.Simulate(pop.Trace, sc.pol, sim.WithExecTime(sc.exec))
		got := cluster.Simulate(pop.Trace, sc.pol, cluster.Config{
			Nodes:       1,
			NodeMemMB:   0, // infinite
			UseExecTime: sc.exec,
		})
		if got.Policy != want.Policy {
			t.Errorf("%s: policy %q want %q", sc.name, got.Policy, want.Policy)
		}
		if math.Float64bits(got.HorizonSeconds) != math.Float64bits(want.HorizonSeconds) {
			t.Errorf("%s: horizon bits differ", sc.name)
		}
		if len(got.Apps) != len(want.Apps) {
			t.Fatalf("%s: %d apps, want %d", sc.name, len(got.Apps), len(want.Apps))
		}
		mismatches := 0
		for i, w := range want.Apps {
			g := got.Apps[i]
			if g.AppID != w.AppID || g.Invocations != w.Invocations ||
				g.ColdStarts != w.ColdStarts || g.ModeCounts != w.ModeCounts ||
				math.Float64bits(g.WastedSeconds) != math.Float64bits(w.WastedSeconds) {
				mismatches++
				if mismatches <= 5 {
					t.Errorf("%s app %s: cluster %+v, sim %+v", sc.name, w.AppID, g.AppResult, w)
				}
			}
			if g.Evictions != 0 || g.EvictionColdStarts != 0 {
				t.Errorf("%s app %s: eviction activity on an infinite cluster", sc.name, w.AppID)
			}
		}
		if mismatches > 5 {
			t.Errorf("%s: %d further app mismatches suppressed", sc.name, mismatches-5)
		}
	}
}

// goldenPopulation/goldenScenarios (golden_test.go) also feed
// TestSimulateGolden, which pins sim.Simulate itself to the committed
// seed results — together the two tests chain the cluster timeline
// all the way back to the seed implementation bit for bit.
