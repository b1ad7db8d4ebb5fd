package cluster

import (
	"hash/fnv"
	"sort"

	"repro/internal/spec"
)

// Placement decides which node hosts an application. The engine calls
// Place once per app, at the app's first container load; the choice is
// sticky for the rest of the run (container images and data locality
// make per-load migration unrealistic, and a sticky choice keeps runs
// deterministic).
type Placement interface {
	// Name returns a short identifier used in reports.
	Name() string
	// Place returns the node index in [0, view.NumNodes()) for app.
	Place(app Footprint, view View) int
}

// Footprint is the placement-relevant summary of one application.
type Footprint struct {
	ID string
	// MemMB is the effective memory charge (after the default for apps
	// with no memory row).
	MemMB float64
}

// View exposes the cluster state a placement decision may consult.
type View interface {
	// NumNodes returns the node count.
	NumNodes() int
	// ResidentMB returns the memory currently resident on a node.
	ResidentMB(node int) float64
	// Up reports whether a node is in service. Nodes only leave
	// service through timed cluster events (Config.Events); without
	// events every node is always up. A placement returning a down
	// node is corrected to the next in-service node by the engine.
	Up(node int) bool
}

// Replacer is an optional Placement extension consulted when a
// cluster event (fail/drain) displaces an app from its node: Replace
// chooses the surviving node that takes the app over, observing the
// live View. from is the node the app is leaving (already down).
// Return -1 when no node can take the app — it re-tries placement at
// its next load. Placements without the hook fall back to Place with
// the result advanced to the next in-service node.
type Replacer interface {
	Placement
	Replace(app Footprint, from int, view View) int
}

// TracePreparer is an optional Placement extension for offline
// policies that assign from the full application set before the run
// (e.g. bin packing). Prepare is called once, before any Place, with
// every app of the trace in trace order.
type TracePreparer interface {
	Prepare(apps []Footprint, nodes int, capacityMB float64)
}

// Oblivious is an optional Placement extension marking a placement as
// view-oblivious: Place's result depends only on the app's Footprint,
// the static cluster shape (View.NumNodes) and whatever Prepare
// precomputed — never on live residency (View.ResidentMB). hash and
// binpack are oblivious; least-loaded is not.
//
// The engine runs oblivious placements on the parallel per-node path:
// every app is pre-assigned before the run, the invocation stream is
// sharded per node, and node timelines execute independently,
// GOMAXPROCS at a time. View-dependent placements keep the
// sequential global timeline — the only schedule under which their
// residency reads are well-defined. Results are bit-identical on both
// paths (property-tested); only the wall clock differs.
//
// A placement that reports Oblivious() == true must honor the
// contract: during pre-assignment the engine hands Place a View whose
// ResidentMB panics, so a placement that claims obliviousness but
// reads residency fails loudly instead of silently diverging.
// TestEveryObliviousPlacementRunsSharded puts every registered
// placement that claims it through that view.
type Oblivious interface {
	Placement
	// Oblivious reports whether Place never consults View.ResidentMB.
	Oblivious() bool
}

// staticView is the View handed to oblivious placements during
// pre-assignment: the cluster shape is visible, live residency is not.
type staticView struct {
	nodes int
}

// NumNodes implements View.
func (v staticView) NumNodes() int { return v.nodes }

// ResidentMB implements View by enforcing the Oblivious contract.
func (v staticView) ResidentMB(int) float64 {
	panic("cluster: oblivious placement consulted View.ResidentMB during pre-assignment; " +
		"a placement that depends on live residency must not report Oblivious()")
}

// Up implements View: pre-assignment only happens on event-free runs,
// where every node is permanently in service.
func (v staticView) Up(int) bool { return true }

// HashPlacement spreads apps by a stable hash of their ID: stateless,
// coordination-free, and what a consistent-hashing front end degrades
// to. It ignores load, so skewed app sizes skew nodes.
type HashPlacement struct{}

// Name implements Placement.
func (HashPlacement) Name() string { return "hash" }

// Oblivious implements Oblivious: the hash reads only the app ID and
// the node count.
func (HashPlacement) Oblivious() bool { return true }

// Place implements Placement.
func (HashPlacement) Place(app Footprint, view View) int {
	h := fnv.New64a()
	h.Write([]byte(app.ID))
	return int(h.Sum64() % uint64(view.NumNodes()))
}

// LeastLoadedPlacement puts each app, at its first load, on the node
// with the least resident memory at that instant (ties to the lowest
// index) — the greedy online policy of most schedulers.
type LeastLoadedPlacement struct{}

// Name implements Placement.
func (LeastLoadedPlacement) Name() string { return "least-loaded" }

// Place implements Placement, skipping out-of-service nodes (ties to
// the lowest index). With no node in service it returns 0 and the
// engine fails the load.
func (LeastLoadedPlacement) Place(app Footprint, view View) int {
	best, bestMB := -1, 0.0
	for n := 0; n < view.NumNodes(); n++ {
		if !view.Up(n) {
			continue
		}
		if mb := view.ResidentMB(n); best < 0 || mb < bestMB {
			best, bestMB = n, mb
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

// Replace implements Replacer: a displaced app lands on the least-
// loaded surviving node, -1 when none is in service.
func (LeastLoadedPlacement) Replace(app Footprint, from int, view View) int {
	best, bestMB := -1, 0.0
	for n := 0; n < view.NumNodes(); n++ {
		if n == from || !view.Up(n) {
			continue
		}
		if mb := view.ResidentMB(n); best < 0 || mb < bestMB {
			best, bestMB = n, mb
		}
	}
	return best
}

// BinPackPlacement assigns offline by first-fit decreasing: apps
// sorted largest memory first are packed onto the first node whose
// static assignment still fits the capacity; when nothing fits, the
// least-assigned node takes the overflow. It needs the whole trace up
// front (TracePreparer) and models a planner with global knowledge —
// the strongest static baseline against the online policies.
type BinPackPlacement struct {
	assign map[string]int
}

// Name implements Placement.
func (*BinPackPlacement) Name() string { return "binpack" }

// Prepare implements TracePreparer.
func (p *BinPackPlacement) Prepare(apps []Footprint, nodes int, capacityMB float64) {
	order := make([]int, len(apps))
	for i := range order {
		order[i] = i
	}
	// Largest first; ties keep trace order for determinism.
	sort.SliceStable(order, func(a, b int) bool {
		return apps[order[a]].MemMB > apps[order[b]].MemMB
	})
	assigned := make([]float64, nodes)
	p.assign = make(map[string]int, len(apps))
	for _, i := range order {
		app := apps[i]
		node := -1
		for n := 0; n < nodes; n++ {
			if assigned[n]+app.MemMB <= capacityMB {
				node = n
				break
			}
		}
		if node < 0 {
			// Nothing fits statically: spill to the least-assigned node
			// and let runtime eviction arbitrate.
			node = 0
			for n := 1; n < nodes; n++ {
				if assigned[n] < assigned[node] {
					node = n
				}
			}
		}
		assigned[node] += app.MemMB
		p.assign[app.ID] = node
	}
}

// Oblivious implements Oblivious: the assignment is fixed by Prepare
// (and the hash fallback), never by live residency.
func (*BinPackPlacement) Oblivious() bool { return true }

// Place implements Placement.
func (p *BinPackPlacement) Place(app Footprint, view View) int {
	if node, ok := p.assign[app.ID]; ok {
		return node
	}
	// Unknown app (not in the prepared trace): fall back to hashing.
	return HashPlacement{}.Place(app, view)
}

// The placement registry mirrors the policy registry: binaries and
// examples select placements by name ("hash", "least-loaded",
// "binpack") through one parsed-spec path. Unknown names and any
// parameter are errors.
var placementReg = spec.NewRegistry("cluster: unknown placement", "cluster: placement spec", map[string]func(*spec.Params) (Placement, error){
	"hash":         func(*spec.Params) (Placement, error) { return HashPlacement{}, nil },
	"least-loaded": func(*spec.Params) (Placement, error) { return LeastLoadedPlacement{}, nil },
	"binpack":      func(*spec.Params) (Placement, error) { return &BinPackPlacement{}, nil },
})

// NewPlacement builds a registered placement from its name.
func NewPlacement(s string) (Placement, error) { return placementReg.New(s) }

// PlacementNames returns the registered placement names, sorted.
func PlacementNames() []string { return placementReg.Names() }
