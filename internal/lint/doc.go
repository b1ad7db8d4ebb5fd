// Package lint is wildlint: a static-analysis suite that enforces
// this repository's semantic contracts at compile time. The contracts
// it checks otherwise live only in doc comments and runtime tests —
// the Oblivious placement rule is a runtime panic, pool hygiene an
// AllocsPerRun regression, sink fan-out completeness nothing at all.
// Encoding them as analyzers keeps every future change honest on
// every push.
//
// The five analyzers:
//
//   - determinism: flags `range` over a map inside the deterministic
//     result path (internal/sim, internal/cluster, internal/metrics,
//     internal/scenario) — map iteration order is randomized per run,
//     so any accumulation that observes it breaks bit-identical
//     results. It also flags wall-clock reads (time.Now, time.Since,
//     time.Until) and the global math/rand functions anywhere in the
//     tree: results must depend only on the trace and the seed.
//   - oblivious: a placement whose Oblivious() method returns a
//     constant true promises that Place never consults
//     View.ResidentMB (internal/cluster/placement.go). The engine
//     enforces this at runtime with a panicking view during
//     pre-assignment; this analyzer proves it at compile time by
//     walking Place's intra-package static call graph and rejecting
//     any reachable ResidentMB method call or method value.
//   - release: pool hygiene for policy.Releasable state and the
//     kernel's scratch-owned run slices. A value acquired from a pool
//     (sync.Pool.Get or a Policy.NewApp call) must, on every path
//     through the acquiring function, either be released
//     (Release/ReleaseRuns/Pool.Put, including via the
//     `if r, ok := v.(policy.Releasable)` idiom) or escape to an
//     owner (returned, passed along, or stored under a
//     //wildlint:owner annotation). Scratch.DecideRuns results must
//     not escape the acquiring function without a copy.
//   - sinkcontract: every concrete sink type registered through
//     RegisterSink / RegisterScenarioSink must implement Merge and
//     the MarshalState/UnmarshalState codec. Merge is compelled by
//     the Sink interface, but the codec is only discovered at runtime
//     by the multi-process fan-out (internal/scenario/procs.go) — a
//     sink without it silently breaks RunSweepProcs.
//   - specparams: every spec factory built on internal/spec must
//     check Params.Unused() in the function that calls spec.Parse,
//     so unknown-key errors stay uniform across policies, placements,
//     sources and sinks.
//
// # Annotation grammar
//
// Opt-outs are explicit, minimal, and checked: an annotation that
// suppresses nothing is itself a diagnostic ("unused wildlint
// annotation"), so stale allowances cannot linger. An annotation is a
// directive comment — no space after the slashes — placed either on
// the line directly above the construct it governs or trailing on the
// same line:
//
//	//wildlint:orderinvariant
//		The next `range` statement over a map is order-invariant
//		(e.g. a commutative fold such as summing counters) and may
//		iterate in map order. Checked by: determinism.
//
//	//wildlint:allow wallclock
//		The next statement — or, when placed on a func declaration,
//		the whole function — is intentionally wall-clock code
//		(progress timers, latency measurement).
//		Checked by: determinism.
//
//	//wildlint:allow poolleak
//		The acquisition in the next statement may drop the pooled
//		value on some path (e.g. discarding an incompatible pooled
//		shape and building fresh). Checked by: release.
//
//	//wildlint:owner
//		The store in this statement transfers ownership of a pooled
//		value to a long-lived owner that releases it later (e.g. the
//		serve.Controller's per-app entries, released by
//		Controller.Release). Checked by: release.
//
// # Running
//
//	go run ./cmd/wildlint ./...
//
// exits 0 when the tree is clean, 1 with file:line:col diagnostics
// otherwise. CI runs it in the lint job on every push.
//
// # Implementation notes
//
// The framework mirrors golang.org/x/tools/go/analysis (Analyzer,
// Pass, analysistest-style fixtures with `// want` expectations) but
// is self-contained: this module builds offline with no external
// dependencies, so the driver loads packages with `go list -export
// -deps -json` and type-checks against the gc export data via
// go/importer's lookup hook — the same mechanism x/tools' drivers
// use. Analyzers are intra-package and syntax+types based: dynamic
// calls through function values are not traced (the oblivious and
// release analyzers document this), which has not been a limitation
// on this codebase's shapes.
package lint
