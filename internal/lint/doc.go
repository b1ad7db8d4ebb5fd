// Package lint is wildlint: the one contract of this repository that
// only a static pass can hold. Results are pinned bit for bit, so they
// must depend on the trace and the seed alone — and a stray map range
// or time.Now() in the result path passes every test on the day it is
// written, because the goldens only move when the iteration order or
// the clock happens to.
//
// The analyzer:
//
//   - determinism: flags `range` over a map inside the deterministic
//     result path (internal/sim, internal/cluster, internal/metrics,
//     internal/scenario) — map iteration order is randomized per run,
//     so any accumulation that observes it breaks bit-identical
//     results. It also flags wall-clock reads (time.Now, time.Since,
//     time.Until) and the global math/rand functions anywhere in the
//     tree: results must depend only on the trace and the seed.
//
// Four other contracts need no analyzer because they are held by
// construction, each checked by a seeded violation in real code
// (CHANGES.md PR 23 has the table): a sink without its state codec
// does not compile (the codec is part of scenario.Sink); a component
// spec's leftover-key check cannot be skipped (spec.Build is the only
// way to a *spec.Params); the batch engines cannot leak pooled policy
// state (kernel.Scratch.Walk acquires, walks and releases in one
// call); and a placement that claims Oblivious() but reads residency
// panics in every sharded run, which a test performs for every
// registered placement.
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
// use. Analyzers are intra-package and syntax+types based.
package lint
