package experiments

import (
	"fmt"
	"testing"

	"mb2/internal/check"
	"mb2/internal/runner"
)

// miniConfig is a pipeline config small enough to build several times per
// test yet covering every parallelized stage: the OU-runner sweep, model
// selection with two candidate families, and the concurrent runners.
func miniConfig(seed int64) Config {
	rc := runner.DefaultConfig()
	rc.MaxRows = 256
	rc.Repetitions = 2
	rc.Warmups = 0
	to := Quick().Train
	to.Candidates = []string{"huber", "gbm"}
	return Config{
		Runner:              rc,
		Train:               to,
		TPCHScale:           0.02,
		IntervalUS:          50_000,
		InterferenceThreads: []int{1, 3},
		InterferenceRates:   []int{1},
		Seed:                seed,
	}
}

func buildAt(t *testing.T, cfg Config, jobs int, interference bool) *Pipeline {
	t.Helper()
	cfg.Jobs = jobs
	p, err := BuildPipeline(cfg)
	if err != nil {
		t.Fatalf("BuildPipeline(jobs=%d): %v", jobs, err)
	}
	if interference {
		if err := p.TrainInterference(); err != nil {
			t.Fatalf("TrainInterference(jobs=%d): %v", jobs, err)
		}
	}
	return p
}

// TestParallelTrainingMatchesSerial is the serial-equivalence proof for the
// whole offline pipeline: data collection, OU-model training, concurrent
// runners, and interference-model training digest bit-for-bit identically
// at -j 1 and -j 8.
func TestParallelTrainingMatchesSerial(t *testing.T) {
	cfg := miniConfig(1)
	serial := buildAt(t, cfg, 1, true)
	parallel := buildAt(t, cfg, 8, true)

	ds, dp := serial.Digest(), parallel.Digest()
	if ds == 0 {
		t.Fatal("serial pipeline digest is zero; digest is not covering state")
	}
	if ds != dp {
		t.Fatalf("pipeline state diverges: -j 1 digest %016x, -j 8 digest %016x", ds, dp)
	}
	if serial.Repo.NumRecords() != parallel.Repo.NumRecords() {
		t.Fatalf("record counts diverge: %d vs %d",
			serial.Repo.NumRecords(), parallel.Repo.NumRecords())
	}
}

// TestSeedMatrixDeterminism sweeps seeds and jobs settings: the concurrency
// harness's serial replay must digest identically across repeat runs of the
// same seed, and the training pipeline must digest identically across
// jobs ∈ {1, 2, 8} for every seed.
func TestSeedMatrixDeterminism(t *testing.T) {
	for _, seed := range []int64{1, 5} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ccfg := check.Config{
				Seed: seed, Workers: 2, OpsPerWorker: 12, Phases: 2, Serial: true,
			}
			first, err := check.Run(ccfg)
			if err != nil {
				t.Fatalf("check.Run: %v", err)
			}
			second, err := check.Run(ccfg)
			if err != nil {
				t.Fatalf("check.Run (repeat): %v", err)
			}
			if first.StateDigest != second.StateDigest {
				t.Fatalf("serial replay not deterministic: %016x vs %016x",
					first.StateDigest, second.StateDigest)
			}

			cfg := miniConfig(seed)
			base := buildAt(t, cfg, 1, false).Digest()
			for _, jobs := range []int{2, 8} {
				if d := buildAt(t, cfg, jobs, false).Digest(); d != base {
					t.Fatalf("jobs=%d digest %016x != serial digest %016x", jobs, d, base)
				}
			}
		})
	}
}

// TestQuickPipelineDigestPinned pins the quick config's trained state: the
// sweep's records, every OU model's selection report and its predictions
// over its own records, and the interference model's report and size. A
// change to the OU-runners, the ML kernels or model selection moves it, and
// then it is re-pinned on purpose, with the fields that moved named.
func TestQuickPipelineDigestPinned(t *testing.T) {
	const want uint64 = 0xd179cead70b44f00
	if got := pipeline(t).Digest(); got != want {
		t.Fatalf("quick pipeline digest %#x, pinned %#x", got, want)
	}
}
