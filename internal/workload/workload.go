// Package workload implements the four OLTP-Bench benchmarks the paper
// evaluates with (Sec 8): TPC-H (OLAP), TPC-C, TATP, and SmallBank (OLTP).
// Each benchmark loads a structurally faithful, scaled-down dataset into
// the engine and exposes its query/transaction templates as cached physical
// plans with optimizer estimates (the paper assumes plans are cached,
// Sec 3).
package workload

import (
	"math/rand"

	"mb2/internal/engine"
	"mb2/internal/plan"
	"mb2/internal/runner"
)

// Benchmark is one end-to-end workload.
type Benchmark interface {
	// Name identifies the benchmark.
	Name() string
	// Load creates the schema and loads data at the given scale factor.
	Load(db *engine.DB, scale float64, seed int64) error
	// Templates returns representative cached query plans with optimizer
	// estimates filled in from the loaded data.
	Templates(db *engine.DB, seed int64) []runner.QueryTemplate
}

// est builds an estimate pair.
func est(rows, distinct float64) plan.Estimates {
	if rows < 1 {
		rows = 1
	}
	if distinct < 1 {
		distinct = 1
	}
	return plan.Estimates{Rows: rows, Distinct: distinct}
}

// pick returns a deterministic pseudo-random int in [0, n).
func pick(rng *rand.Rand, n int) int64 {
	if n <= 0 {
		return 0
	}
	return int64(rng.Intn(n))
}
