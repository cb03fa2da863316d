// Command mb2-train runs MB2's offline training pipeline: every OU-runner
// sweeps its operating unit's feature space, the collected data trains one
// OU-model per OU (with automatic algorithm selection), and the concurrent
// runners train the interference model. It prints the Table 2-style
// overhead accounting and the per-OU model-selection report.
//
// Usage:
//
//	mb2-train [-full] [-seed N] [-j N] [-data-out FILE]
//
// The default configuration is the quick preset (seconds); -full uses the
// paper-scale sweeps (minutes). -j bounds the worker pool for every stage
// of the pipeline; results are bit-for-bit identical at every setting.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"

	"mb2/internal/experiments"
)

func main() {
	full := flag.Bool("full", false, "use the paper-scale configuration (slower)")
	seed := flag.Int64("seed", 1, "deterministic seed")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "worker-pool size for the pipeline (1 = serial; results are identical at any value)")
	dataOut := flag.String("data-out", "", "write the training-data repository as JSON lines to this file")
	flag.Parse()

	cfg := experiments.Quick()
	if *full {
		cfg = experiments.Full()
	}
	cfg.Seed = *seed
	cfg.Runner.Seed = *seed
	cfg.Train.Seed = *seed
	cfg.Jobs = *jobs

	fmt.Println("== MB2 offline training ==")
	p, err := experiments.BuildPipeline(cfg)
	if err != nil {
		log.Fatalf("mb2-train: %v", err)
	}
	fmt.Printf("OU-runners: %d records in %v (%.1fs of simulated DBMS time)\n",
		p.Repo.NumRecords(), p.RunnerWall, p.RunnerSimUS/1e6)
	fmt.Printf("OU-model training: %v\n", p.TrainWall)

	if *dataOut != "" {
		f, err := os.Create(*dataOut)
		if err != nil {
			log.Fatalf("mb2-train: %v", err)
		}
		if err := p.Repo.WriteJSON(f); err != nil {
			log.Fatalf("mb2-train: writing %s: %v", *dataOut, err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("mb2-train: %v", err)
		}
		fmt.Printf("training data written to %s\n", *dataOut)
	}

	fmt.Println("\nPer-OU model selection:")
	for _, kind := range p.Models.Kinds() {
		m := p.Models.OUModels[kind]
		best := m.Report.Best
		bestErr := 0.0
		for _, c := range m.Report.Candidates {
			if c.Name == best {
				bestErr = c.Error
			}
		}
		// Explainability: which feature the model leans on hardest.
		imp := m.FeatureImportance(p.Repo.Records(kind), *seed)
		topName, topScore := "", -1.0
		for name, s := range imp {
			if s > topScore {
				topName, topScore = name, s
			}
		}
		fmt.Printf("  %-16s -> %-14s (validation rel err %.3f, %d records, key feature: %s)\n",
			kind, best, bestErr, len(p.Repo.Records(kind)), topName)
	}

	fmt.Println("\nTraining the interference model (concurrent runners)...")
	if err := p.TrainInterference(); err != nil {
		log.Fatalf("mb2-train: %v", err)
	}
	fmt.Printf("interference: %d samples in %v; selected %s\n",
		p.InterfSamples, p.InterfWall, p.Models.Interference.Report.Best)

	fmt.Println()
	experiments.PrintTab2(os.Stdout, p)
}
