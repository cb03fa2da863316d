// Package check is a deterministic concurrency-stress and
// invariant-checking harness for the MB2 substrate (the engine the paper's
// OU-runners instrument: MVCC storage, B+tree indexes, GC, WAL). One Run
// drives N worker goroutines through a seed-derived SmallBank-style
// transaction mix — point reads, balance updates, cross-account transfers,
// account insert/delete, and live snapshot audits — against a single
// engine.DB while background maintenance (GC epochs, WAL group flushes)
// races the workload, with a parallel index build at the first phase
// boundary. At every phase boundary the harness quiesces and verifies four
// invariant families:
//
//   - MVCC / snapshot isolation: no half-published commits, version chains
//     well-formed, committed balances conserved against a commit ledger,
//     repeatable reads and cross-table commit atomicity (checked live by
//     the audit and balance operations inside the workload itself);
//   - B+tree structure: fanout and depth bounds, key ordering, separator
//     bounds, leaf chain integrity, plus exact index<->table agreement
//     (engine.CheckIndexes — the workload writes through the engine's one
//     write path, the same calls SQL DML makes);
//   - GC safety: a collection pass never changes any state visible to a
//     live snapshot, and afterwards chains are pruned below the oldest
//     active timestamp;
//   - WAL-replay equivalence: replaying the durable log image into fresh
//     tables reproduces the live tables' committed state exactly.
//
// # Concurrency contract
//
// Every schedule is a pure function of its seed: per-worker operation
// streams are pre-derived from (seed, worker id) before any goroutine
// starts, so a failure report (which always carries the seed) can be
// replayed. Serial mode re-executes the same streams in a fixed
// round-robin interleaving on one goroutine for bit-exact reproduction —
// same Report, same StateDigest across runs. Concurrent mode keeps the
// streams fixed but lets the scheduler pick the interleaving, so its
// digest varies run to run while every invariant must still hold. This
// seed-derivation discipline is the template the parallel training
// pipeline mirrors (internal/par, runner.SweepUnit).
package check
