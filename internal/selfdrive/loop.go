package selfdrive

import (
	"errors"
	"fmt"
	"time"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/exec"
	"mb2/internal/modeling"
	"mb2/internal/par"
	"mb2/internal/session"
	"mb2/internal/workload"
)

// Config drives one closed-loop run.
type Config struct {
	Seed int64
	// Sessions is the number of concurrent workload sessions (worker
	// threads); QueriesPerSession is each session's per-interval volume.
	Sessions          int
	QueriesPerSession int
	Intervals         int
	// PlanEvery runs a planning step at every Nth interval boundary.
	PlanEvery int
	// HistoryWindow bounds the windowed forecast store (and the trend fit).
	HistoryWindow int
	IntervalUS    float64
	// ThreadCandidates are the index-build parallelism degrees the planner
	// weighs (empty selects the planner's default); MaxImpactRatio is its
	// during-build impact budget.
	ThreadCandidates []int
	MaxImpactRatio   float64
	// Jobs bounds the session worker pool (<= 0 selects GOMAXPROCS, 1 is
	// serial); results are bit-for-bit identical at every setting.
	Jobs int

	// Partitions and DOP seed the engine's partitioning knobs at open
	// (<= 1 is the serial engine); the planner may move both.
	Partitions int
	DOP        int

	// CustomersPerDistrict sizes the TPC-C database.
	CustomersPerDistrict int

	// Templates > 0 explodes the four base templates into that many
	// synthetic variants (the high-cardinality scenario).
	Templates int
	// Clusters > 0 enables workload compression: templates are clustered
	// into at most this many representatives, forecasting runs per cluster,
	// and planning sees one forecast entry per cluster.
	Clusters int
	// LoadCurve shapes per-interval volume: "" or "flat", "diurnal"
	// (sinusoid), "flash" (3x spike for two mid-run intervals).
	LoadCurve string
}

// DefaultConfig returns a configuration sized for tests and quick CLI runs.
func DefaultConfig() Config {
	return Config{
		Seed:                 1,
		Sessions:             2,
		QueriesPerSession:    6,
		Intervals:            12,
		PlanEvery:            2,
		HistoryWindow:        6,
		IntervalUS:           100_000,
		ThreadCandidates:     []int{1, 2, 4},
		MaxImpactRatio:       maxImpactRatio,
		CustomersPerDistrict: 300,
	}
}

func (cfg Config) withDefaults() Config {
	d := DefaultConfig()
	if cfg.Sessions < 1 {
		cfg.Sessions = d.Sessions
	}
	if cfg.QueriesPerSession < 1 {
		cfg.QueriesPerSession = d.QueriesPerSession
	}
	if cfg.Intervals < 1 {
		cfg.Intervals = d.Intervals
	}
	if cfg.PlanEvery < 1 {
		cfg.PlanEvery = d.PlanEvery
	}
	if cfg.HistoryWindow < 2 {
		cfg.HistoryWindow = d.HistoryWindow
	}
	if cfg.IntervalUS <= 0 {
		cfg.IntervalUS = d.IntervalUS
	}
	if cfg.MaxImpactRatio <= 0 {
		cfg.MaxImpactRatio = d.MaxImpactRatio
	}
	if cfg.CustomersPerDistrict < workload.TPCCLastNames {
		cfg.CustomersPerDistrict = d.CustomersPerDistrict
	}
	return cfg
}

// AppliedAction records one action the loop applied.
type AppliedAction struct {
	Interval             int     `json:"interval"`
	Kind                 string  `json:"kind"` // mode-change | index-build-start | index-publish | repartition | set-dop
	Detail               string  `json:"detail"`
	PredictedImprovement float64 `json:"predicted_improvement"`
}

// IntervalReport is the loop's record of one executed interval.
type IntervalReport struct {
	Interval             int     `json:"interval"`
	Queries              int     `json:"queries"`
	ObservedAvgLatencyUS float64 `json:"observed_avg_latency_us"`
	// PredictedAvgLatencyUS is the prediction made for this interval at the
	// end of the previous one (0 when none was made yet).
	PredictedAvgLatencyUS float64               `json:"predicted_avg_latency_us"`
	Mode                  catalog.ExecutionMode `json:"mode"`
	Building              bool                  `json:"building"`
	IndexLive             bool                  `json:"index_live"`
	// DOP and Partitions are the live knob values the interval ran with.
	DOP        int     `json:"dop"`
	Partitions int     `json:"partitions"`
	WallUS     float64 `json:"wall_us"`
}

// Result is the full run outcome.
type Result struct {
	Intervals []IntervalReport `json:"intervals"`
	Actions   []AppliedAction  `json:"actions"`
	// MAPE is the predicted-vs-observed interval-latency error over every
	// interval that had a prediction.
	MAPE float64 `json:"mape"`
	// Cache accounting across all loop inference.
	CacheHits    uint64  `json:"cache_hits"`
	CacheMisses  uint64  `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	// Digest fingerprints the run's observable behavior (per-interval
	// counts, latencies, modes, actions): two same-seed runs must match
	// bit for bit.
	Digest uint64 `json:"digest"`
	// HistoryEvicted counts intervals the windowed forecast store dropped.
	HistoryEvicted int `json:"history_evicted"`
	// InferenceUS are the wall-clock durations of the loop's direct
	// next-interval predictions (for p50/p99 reporting).
	InferenceUS []float64 `json:"inference_us"`
	// FusedPipelines counts pipelines the sessions executed on the fused
	// compiled path across the whole run — observability only, NOT part of
	// the digest (the digest fingerprints behavior, not implementation).
	FusedPipelines int `json:"fused_pipelines"`
	// VecBatches counts column batches the sessions processed on the
	// vectorized path — the vec-mode analogue of FusedPipelines, likewise
	// kept out of the digest.
	VecBatches int `json:"vec_batches"`
	// CacheEvictions counts entries the bounded prediction cache's LRU
	// dropped (0 unless the run's template population outgrew the bound).
	CacheEvictions uint64 `json:"cache_evictions"`
	// TemplatesSeen is how many distinct templates the run observed;
	// Clusters is how many clusters they compressed into (0 = compression
	// off). Observability only — neither folds into the digest.
	TemplatesSeen int `json:"templates_seen"`
	Clusters      int `json:"clusters"`
	// VolumeMAPE is the per-template volume-forecast error: predictions
	// (fanned back out from clusters proportionally when compression is
	// on) against the next interval's observed per-template counts.
	VolumeMAPE float64 `json:"volume_mape"`
}

// Run executes the closed loop against a fresh TPC-C database using the
// trained models, driving the scenario through one LiveController. See the
// package comment for the loop's step and determinism scheme.
func Run(cfg Config, ms *modeling.ModelSet) (*Result, error) {
	return run(cfg, ms, modeling.NewPredictionCache())
}

// run is Run over the given prediction cache. Eviction only forgets
// memoized work, so the cache's bound never moves a digest.
func run(cfg Config, ms *modeling.ModelSet, cache *modeling.PredictionCache) (*Result, error) {
	cfg = cfg.withDefaults()
	sc, err := newScenario(cfg)
	if err != nil {
		return nil, err
	}
	// The intervals' statements share exec's recycled set. Held across the
	// load and the planning phases, which run no statement, it is not freed
	// by whichever collections land there, so what an interval allocates
	// does not depend on the collector's timing.
	defer exec.Hold()()
	knobs := catalog.DefaultKnobs()
	if cfg.Partitions > 1 {
		knobs.PartitionCount = cfg.Partitions
	}
	if cfg.DOP > 1 {
		knobs.ScanDOP = cfg.DOP
	}
	db := engine.Open(knobs)
	if err := sc.tpcc.Load(db, 1, cfg.Seed); err != nil {
		return nil, fmt.Errorf("selfdrive: loading workload: %w", err)
	}

	// The run's process list: every interval's workers are real sessions
	// admitted here, and the controller drains them — the same path a live
	// server's traffic takes. Representative plans come from the scenario.
	reg := session.NewRegistry(db, 0)
	ctl := NewLiveController(reg, ms, cfg)
	ctl.rep = sc.repFor
	ctl.p.Cache = cache

	var reports []IntervalReport
	var fused, vec int
	for i := 0; i < cfg.Intervals; i++ {
		start := time.Now()
		// Each worker is a real session admitted through the process list:
		// Open samples the live knobs and wires the session's private
		// observation buffer, and serial admission gives ascending IDs — the
		// deterministic merge order. Each session draws its queries from its
		// own seeded stream.
		workers := make([]*session.Session, cfg.Sessions)
		for s := range workers {
			if workers[s], err = reg.Open(session.Options{Contenders: float64(cfg.Sessions)}); err != nil {
				return nil, fmt.Errorf("selfdrive: admitting session %d: %w", s, err)
			}
		}
		errs := make([]error, cfg.Sessions)
		par.Do(cfg.Jobs, cfg.Sessions, func(s int) {
			for _, q := range sc.sessionQueries(i, s, ctl.published) {
				if _, _, err := workers[s].ExecPlan(q.name, 0, q.node); err != nil {
					errs[s] = fmt.Errorf("selfdrive: session %d executing %s: %w", s, q.name, err)
					return
				}
			}
		})
		if err := errors.Join(errs...); err != nil {
			return nil, err
		}
		r, err := ctl.Tick()
		if err != nil {
			return nil, err
		}
		for _, w := range workers {
			fused += w.ExecCtx().FusedPipelines
			vec += w.ExecCtx().VecBatches
			w.Close()
		}
		r.WallUS = float64(time.Since(start).Microseconds())
		reports = append(reports, r)
	}
	res := ctl.result()
	res.Intervals, res.FusedPipelines, res.VecBatches = reports, fused, vec
	return res, nil
}
