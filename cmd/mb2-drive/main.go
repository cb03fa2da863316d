// Command mb2-drive closes MB2's loop: it drives a live engine under
// concurrent seeded workload sessions and, at each planning interval,
// aggregates the live query stream, forecasts the next interval, ranks
// candidate actions (execution-mode flip, index builds at several thread
// counts) with the behavior models, and applies the winner against the
// running system — recording predicted-vs-observed interval latency.
//
// Usage:
//
//	mb2-drive [-seed N] [-intervals N] [-sessions N] [-j N]
//	          [-partitions N] [-dop N]
//	          [-templates N] [-clusters K] [-load-curve NAME]
//	          [-data FILE] [-verify]
//	          [-cpuprofile FILE] [-memprofile FILE]
//
// With -data, the behavior models train from a repository previously
// written by `mb2-train -data-out FILE`; otherwise a quick training sweep
// runs in-process first. A fixed -seed makes the whole run bit-for-bit
// reproducible: -verify replays the run and fails unless the action logs
// and interval digests match exactly.
//
// -templates N explodes the four drive templates into N synthetic variants
// (distinct fingerprints, near-identical OU features); -clusters K turns on
// workload compression, clustering templates into at most K representatives
// that forecasting and planning operate on. -load-curve flat|diurnal|flash
// shapes per-interval volume.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"

	"mb2/internal/metrics"
	"mb2/internal/modeling"
	"mb2/internal/runner"
	"mb2/internal/selfdrive"
)

func main() {
	seed := flag.Int64("seed", 1, "deterministic seed")
	intervals := flag.Int("intervals", selfdrive.DefaultConfig().Intervals, "planning intervals to run")
	sessions := flag.Int("sessions", selfdrive.DefaultConfig().Sessions, "concurrent workload sessions")
	jobs := flag.Int("j", 0, "session worker-pool size (0 = GOMAXPROCS, 1 = serial; results are identical at any value)")
	partitions := flag.Int("partitions", 4, "initial hash partitions per table (1 = unpartitioned; the planner may repartition)")
	dop := flag.Int("dop", 1, "initial scan degree of parallelism (the planner may change it via set-dop actions)")
	templates := flag.Int("templates", 0, "explode the drive templates into N synthetic variants (0 = the plain four-template workload)")
	clusters := flag.Int("clusters", 0, "compress the workload into at most K template clusters for forecasting and planning (0 = off)")
	loadCurve := flag.String("load-curve", "", "per-interval load curve: flat, diurnal, or flash (default flat)")
	dataPath := flag.String("data", "", "train models from this mb2-train -data-out repository instead of sweeping in-process")
	verify := flag.Bool("verify", false, "replay the run and fail unless it reproduces bit for bit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("mb2-drive: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("mb2-drive: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			log.Fatalf("mb2-drive: %v", err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatalf("mb2-drive: %v", err)
		}
		f.Close()
	}()

	ms, err := trainModels(*dataPath, *seed)
	if err != nil {
		log.Fatalf("mb2-drive: %v", err)
	}

	cfg := selfdrive.DefaultConfig()
	cfg.Seed = *seed
	cfg.Intervals = *intervals
	cfg.Sessions = *sessions
	cfg.Jobs = *jobs
	cfg.Partitions = *partitions
	cfg.DOP = *dop
	cfg.Templates = *templates
	cfg.Clusters = *clusters
	cfg.LoadCurve = *loadCurve

	fmt.Printf("== MB2 online control loop (seed %d, %d intervals, %d sessions) ==\n",
		cfg.Seed, cfg.Intervals, cfg.Sessions)
	res, err := selfdrive.Run(cfg, ms)
	if err != nil {
		log.Fatalf("mb2-drive: %v", err)
	}
	printRun(res)

	if *verify {
		replay, err := selfdrive.Run(cfg, ms)
		if err != nil {
			log.Fatalf("mb2-drive: verify replay: %v", err)
		}
		if replay.Digest != res.Digest || !reflect.DeepEqual(replay.Actions, res.Actions) {
			log.Fatalf("mb2-drive: verify FAILED: replay digest %#x vs %#x", replay.Digest, res.Digest)
		}
		fmt.Printf("\nverify: replay reproduced digest %#x and an identical action log\n", res.Digest)
	}
}

// trainModels loads a persisted training repository, or runs the quick
// in-process sweep, and trains the OU-model set.
func trainModels(dataPath string, seed int64) (*modeling.ModelSet, error) {
	repo := metrics.NewRepository()
	if dataPath != "" {
		f, err := os.Open(dataPath)
		if err != nil {
			return nil, err
		}
		n, err := repo.ReadJSON(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("reading %s: %w", dataPath, err)
		}
		fmt.Printf("loaded %d training records from %s\n", n, dataPath)
	} else {
		cfg := runner.DefaultConfig()
		cfg.Seed = seed
		cfg.MaxRows = 1024
		cfg.Repetitions = 2
		cfg.Warmups = 1
		runner.RunAll(repo, cfg)
		fmt.Printf("in-process training sweep: %d records\n", repo.NumRecords())
	}
	opts := modeling.DefaultTrainOptions()
	opts.Seed = seed
	opts.Candidates = []string{"huber", "gbm"}
	return modeling.TrainModelSet(repo, opts)
}

func printRun(res *selfdrive.Result) {
	fmt.Println("\n interval  queries  mode       observed us  predicted us  state")
	for _, rep := range res.Intervals {
		state := "-"
		if rep.Building {
			state = "building"
		} else if rep.IndexLive {
			state = "index live"
		}
		pred := "        -"
		if rep.PredictedAvgLatencyUS > 0 {
			pred = fmt.Sprintf("%9.1f", rep.PredictedAvgLatencyUS)
		}
		fmt.Printf("   %3d     %5d    %-9s  %11.1f  %s     %s\n",
			rep.Interval, rep.Queries, rep.Mode, rep.ObservedAvgLatencyUS, pred, state)
	}
	fmt.Println("\nactions:")
	if len(res.Actions) == 0 {
		fmt.Println("  (none)")
	}
	for _, a := range res.Actions {
		fmt.Printf("  interval %2d  %-17s %s", a.Interval, a.Kind, a.Detail)
		if a.PredictedImprovement > 0 {
			fmt.Printf("  (predicted improvement %.1f%%)", 100*a.PredictedImprovement)
		}
		fmt.Println()
	}
	fmt.Printf("\npredicted-vs-observed MAPE: %.3f\n", res.MAPE)
	if res.Clusters > 0 {
		fmt.Printf("workload compression: %d templates in %d clusters (volume MAPE %.3f)\n",
			res.TemplatesSeen, res.Clusters, res.VolumeMAPE)
	} else if res.TemplatesSeen > 4 {
		fmt.Printf("templates seen: %d (compression off)\n", res.TemplatesSeen)
	}
	fmt.Printf("prediction cache: %d hits, %d misses (hit rate %.2f, %d evictions)\n",
		res.CacheHits, res.CacheMisses, res.CacheHitRate, res.CacheEvictions)
	fmt.Printf("fused pipelines executed: %d\n", res.FusedPipelines)
	fmt.Printf("vectorized batches processed: %d\n", res.VecBatches)
	fmt.Printf("run digest: %#x\n", res.Digest)
}
