package planner

import (
	"fmt"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/hw"
	"mb2/internal/runner"
)

// buildingSuffix hides an in-progress index from the workload's plan
// chooser until the simulated build completes.
const buildingSuffix = "__building"

// SimConfig drives the end-to-end interval simulator behind Figs 1 and 11:
// a fixed pool of worker threads executes a (possibly changing) workload
// while an index build may run on extra threads, with shared-machine
// contention coupling them.
type SimConfig struct {
	DB         *engine.DB
	Concurrent runner.ConcurrentConfig
	Threads    int // worker threads executing queries
	Intervals  int

	// WorkloadAt returns the database, templates, and per-thread execution
	// count for interval i; indexBuilt reports whether the action has
	// completed, so the workload can switch to index-backed plans. The
	// returned database may differ per interval (alternating benchmarks
	// share the machine).
	WorkloadAt func(i int, indexBuilt bool) (*engine.DB, []runner.QueryTemplate, int)
	// ModeAt returns the execution-mode knob setting for interval i
	// (knob changes are instantaneous actions).
	ModeAt func(i int) catalog.ExecutionMode

	// BuildStart is the interval at which the index build begins; negative
	// disables the action.
	BuildStart   int
	BuildThreads int
	IndexName    string
	IndexTable   string
	IndexCols    []string
}

// SimInterval is the observed state of one simulated interval.
type SimInterval struct {
	StartUS      float64
	AvgLatencyUS float64
	Queries      int
	// QueryCPUUtil and BuildCPUUtil are each component's share of the
	// machine's CPU capacity during the interval (the Fig 11b signals).
	QueryCPUUtil float64
	BuildCPUUtil float64
	// CPUByTemplate attributes the query CPU share to individual templates
	// (how MB2 explains which queries benefit from an action, Fig 11b).
	CPUByTemplate map[string]float64
	Building      bool
	IndexBuilt    bool
	Event         string
}

// SimResult is the full timeline plus action accounting.
type SimResult struct {
	Intervals []SimInterval
	// BuildStartUS/BuildEndUS bracket the action's actual execution.
	BuildStartUS float64
	BuildEndUS   float64
	// BuildWork is the per-thread isolated build work (what MB2's
	// INDEX_BUILD OU predicts).
	BuildWork []hw.Metrics
}

// Simulate runs the timeline. The index build is applied at BuildStart as
// an ActionIndexBuild; its BuildHandle's threads then contend with the
// workload interval by interval until the accumulated progress covers the
// work, at which point the index is published and the workload switches
// plans.
func Simulate(cfg SimConfig) (SimResult, error) {
	res := SimResult{}
	if cfg.Threads < 1 {
		cfg.Threads = 1
	}
	machine := cfg.Concurrent.Machine
	intervalUS := cfg.Concurrent.IntervalUS

	var build *BuildHandle
	built := false

	for i := 0; i < cfg.Intervals; i++ {
		iv := SimInterval{StartUS: float64(i) * intervalUS}

		if cfg.BuildStart >= 0 && i == cfg.BuildStart {
			var err error
			build, err = New(cfg.DB, nil).Apply(Action{
				Kind:    ActionIndexBuild,
				Index:   &IndexCandidate{Table: cfg.IndexTable, Name: cfg.IndexName, KeyColNames: cfg.IndexCols},
				Threads: cfg.BuildThreads,
			}, nil)
			if err != nil {
				return res, err
			}
			res.BuildWork = build.PerThread
			res.BuildStartUS = iv.StartUS
			iv.Event = fmt.Sprintf("index build started (%d threads)", cfg.BuildThreads)
		}

		db, templates, perThread := cfg.WorkloadAt(i, built)
		ccfg := cfg.Concurrent
		if cfg.ModeAt != nil {
			ccfg.Mode = cfg.ModeAt(i)
		}
		subset := make([]int, len(templates))
		for s := range subset {
			subset[s] = s
		}
		assignment := runner.RoundRobinAssignment(subset, cfg.Threads, perThread)

		var extra []hw.Metrics
		var extraIdx []int
		if build != nil {
			extra, extraIdx = build.ActiveWork(intervalUS)
		}

		run, err := runner.ExecuteInterval(db, ccfg, templates, assignment, extra)
		if err != nil {
			return res, err
		}

		var latSum float64
		for _, q := range run.Queries {
			latSum += q.Concurrent.ElapsedUS
		}
		iv.Queries = len(run.Queries)
		if iv.Queries > 0 {
			iv.AvgLatencyUS = latSum / float64(iv.Queries)
		}
		capacity := float64(machine.Cores) * intervalUS
		for t := 0; t < cfg.Threads && t < len(run.PerThreadIsolated); t++ {
			iv.QueryCPUUtil += run.PerThreadIsolated[t].CPUTimeUS / capacity
		}
		iv.CPUByTemplate = make(map[string]float64)
		for _, q := range run.Queries {
			iv.CPUByTemplate[templates[q.Template].Name] += q.Isolated.CPUTimeUS / capacity
		}
		for e := range extra {
			iv.BuildCPUUtil += extra[e].CPUTimeUS / capacity
		}

		// Advance the build by each thread's achieved progress.
		if build != nil {
			for e, j := range extraIdx {
				build.Advance(j, intervalUS/run.Ratios[cfg.Threads+e][hw.LabelElapsedUS])
			}
			iv.Building = true
			if build.Done() {
				if err := build.Publish(cfg.DB); err != nil {
					return res, err
				}
				build = nil
				built = true
				res.BuildEndUS = iv.StartUS + intervalUS
				if iv.Event == "" {
					iv.Event = "index built"
				}
			}
		}
		iv.IndexBuilt = built
		res.Intervals = append(res.Intervals, iv)
	}
	return res, nil
}
