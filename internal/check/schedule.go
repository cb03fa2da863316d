package check

import (
	"math/rand"

	"mb2/internal/workload"
)

// Schedule is the deterministic per-seed plan for one stress run: every
// worker's full operation stream, derived purely from the seed. Re-running
// a seed reproduces the identical streams, which is what makes a reported
// failure replayable.
type Schedule struct {
	Seed    int64
	Workers [][]workload.Op
}

// BuildSchedule derives the complete run plan from the seed, each step one
// workload.SmallBank draw. Each worker's stream comes from its own PRNG
// seeded by (seed, worker), so neither the worker count nor scheduling
// order of other workers perturbs a stream.
func BuildSchedule(seed int64, workers, opsPerWorker int) *Schedule {
	s := &Schedule{Seed: seed, Workers: make([][]workload.Op, workers)}
	for w := range s.Workers {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(w)*7919))
		ops := make([]workload.Op, opsPerWorker)
		for i := range ops {
			ops[i] = workload.SmallBank{}.Draw(rng)
		}
		s.Workers[w] = ops
	}
	return s
}
