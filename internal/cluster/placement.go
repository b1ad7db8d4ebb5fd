package cluster

import (
	"encoding/binary"
	"fmt"
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
	// Invocations is the app's total invocation count.
	Invocations int
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
// Config.Workers at a time. View-dependent placements keep the
// sequential global timeline — the only schedule under which their
// residency reads are well-defined. Results are bit-identical on both
// paths (property-tested); only the wall clock differs.
//
// A custom RegisterPlacement implementation that reports
// Oblivious() == true must honor the contract: during pre-assignment
// the engine hands Place a View whose ResidentMB panics, so a
// placement that claims obliviousness but reads residency fails loudly
// instead of silently diverging. TestEveryObliviousPlacementRunsSharded
// puts every registered placement that claims it through that view.
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
// to. It ignores load, so skewed app sizes skew nodes. A non-zero
// Seed is mixed into the hash, giving an ensemble of independent
// spreads for sensitivity sweeps ("hash?seed=3").
type HashPlacement struct {
	Seed uint64
}

// Name implements Placement.
func (p HashPlacement) Name() string {
	if p.Seed == 0 {
		return "hash"
	}
	return fmt.Sprintf("hash?seed=%d", p.Seed)
}

// Oblivious implements Oblivious: the hash reads only the app ID and
// the node count.
func (HashPlacement) Oblivious() bool { return true }

// Place implements Placement.
func (p HashPlacement) Place(app Footprint, view View) int {
	h := fnv.New64a()
	if p.Seed != 0 {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], p.Seed)
		h.Write(b[:])
	}
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

// Bin-packing sort orders ("binpack?order=..."): which footprint
// dimension first-fit-decreasing sorts on.
const (
	// BinPackBySize packs largest memory footprint first (default).
	BinPackBySize = "size"
	// BinPackByInvocations packs most-invoked apps first — spreads the
	// hot apps before the big ones, a latency-oriented variant.
	BinPackByInvocations = "invocations"
	// BinPackByTrace packs in trace order (no sort) — pure first-fit,
	// the weakest static baseline.
	BinPackByTrace = "trace"
)

// BinPackPlacement assigns offline by first-fit decreasing: apps
// sorted by Order (largest memory first by default) are packed onto
// the first node whose static assignment still fits the capacity;
// when nothing fits, the least-assigned node takes the overflow. It
// needs the whole trace up front (TracePreparer) and models a planner
// with global knowledge — the strongest static baseline against the
// online policies.
type BinPackPlacement struct {
	// Order selects the first-fit sort key (BinPackBySize when empty).
	Order  string
	assign map[string]int
}

// Name implements Placement.
func (p *BinPackPlacement) Name() string {
	if p.Order == "" || p.Order == BinPackBySize {
		return "binpack"
	}
	return fmt.Sprintf("binpack?order=%s", p.Order)
}

// Prepare implements TracePreparer.
func (p *BinPackPlacement) Prepare(apps []Footprint, nodes int, capacityMB float64) {
	order := make([]int, len(apps))
	for i := range order {
		order[i] = i
	}
	// Largest-first on the configured key; ties keep trace order for
	// determinism.
	switch p.Order {
	case BinPackByInvocations:
		sort.SliceStable(order, func(a, b int) bool {
			return apps[order[a]].Invocations > apps[order[b]].Invocations
		})
	case BinPackByTrace:
		// Trace order: no sort.
	default:
		sort.SliceStable(order, func(a, b int) bool {
			return apps[order[a]].MemMB > apps[order[b]].MemMB
		})
	}
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

// The placement registry mirrors the policy registry: specs are
//
//	name?key=value&key=value
//
// ("binpack?order=invocations", "hash?seed=3"), with bare names
// selecting the defaults, so binaries and examples configure
// placements through one parsed-spec path. Unknown names and unknown
// keys are errors.

// PlacementBuilder constructs a placement from a spec's parameters.
type PlacementBuilder func(p *spec.Params) (Placement, error)

var placementReg = spec.NewRegistry[Placement]("cluster: unknown placement", "cluster: placement spec")

// RegisterPlacement adds a named placement builder. Registering a
// duplicate name panics (programming error).
func RegisterPlacement(name string, b PlacementBuilder) { placementReg.Register(name, b) }

// NewPlacement builds a registered placement from a spec ("hash",
// "binpack?order=invocations"). Bare names select the defaults.
func NewPlacement(s string) (Placement, error) { return placementReg.New(s) }

// PlacementNames returns the registered placement names, sorted.
func PlacementNames() []string { return placementReg.Names() }

func init() {
	RegisterPlacement("hash", func(p *spec.Params) (Placement, error) {
		seed, err := p.Uint64("seed", 0)
		if err != nil {
			return nil, err
		}
		return HashPlacement{Seed: seed}, nil
	})
	RegisterPlacement("least-loaded", func(*spec.Params) (Placement, error) {
		return LeastLoadedPlacement{}, nil
	})
	RegisterPlacement("binpack", func(p *spec.Params) (Placement, error) {
		order := p.String("order", BinPackBySize)
		switch order {
		case BinPackBySize, BinPackByInvocations, BinPackByTrace:
		default:
			return nil, fmt.Errorf("parameter order: unknown %q (%s, %s, %s)",
				order, BinPackBySize, BinPackByInvocations, BinPackByTrace)
		}
		return &BinPackPlacement{Order: order}, nil
	})
}
