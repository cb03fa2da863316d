package selfdrive

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/fold"
	"mb2/internal/forecast"
	"mb2/internal/hw"
	"mb2/internal/modeling"
	"mb2/internal/par"
	"mb2/internal/plan"
	"mb2/internal/planner"
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
	// SkewShiftAt, when > 0, rotates the exploded population's hot
	// variants at that interval — the mid-run skew shift. Only in-package
	// tests set it: it is the hot-set rotation the pinned compressedConfig
	// row of TestDriveLoopPinnedDigests depends on.
	SkewShiftAt int
	// CacheEntries bounds the prediction cache (0 =
	// modeling.DefaultCacheEntries). Eviction only forgets memoized work,
	// so the bound never affects digests. Only in-package tests set it: it
	// is the eviction pressure TestDriveLoopCacheEvictionsSurfaced needs to
	// show the bound is digest-neutral.
	CacheEntries int
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
	if cfg.CustomersPerDistrict < tpccLastNames {
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
// trained models. See the package comment for the loop's phases and
// determinism scheme.
func Run(cfg Config, ms *modeling.ModelSet) (*Result, error) {
	cfg = cfg.withDefaults()
	sc, err := newScenario(cfg)
	if err != nil {
		return nil, err
	}
	knobs := catalog.DefaultKnobs()
	if cfg.Partitions > 1 {
		knobs.PartitionCount = cfg.Partitions
	}
	if cfg.DOP > 1 {
		knobs.ScanDOP = cfg.DOP
	}
	db := engine.Open(knobs)
	bench := workload.TPCC{CustomersPerDistrict: cfg.CustomersPerDistrict}
	if err := bench.Load(db, 1, cfg.Seed); err != nil {
		return nil, fmt.Errorf("selfdrive: loading workload: %w", err)
	}

	p := planner.New(db, ms)
	if cfg.CacheEntries > 0 {
		p.Cache = modeling.NewBoundedPredictionCache(cfg.CacheEntries)
	} else {
		p.Cache = modeling.NewPredictionCache()
	}
	ctl := &controller{p: p, cand: planner.CandidateConfig{
		ThreadCandidates: cfg.ThreadCandidates,
		MaxImpactRatio:   cfg.MaxImpactRatio,
	}}
	hist := newHistory(cfg.IntervalUS, cfg.HistoryWindow, cfg.Clusters)
	rep := func(name string) plan.Node { return sc.repFor(name, ctl.published) }
	// The run's process list: every interval's workers are real sessions
	// admitted here, and the loop drains its observations from it — the
	// same path a live server's traffic takes.
	reg := session.NewRegistry(db, 0)

	res := &Result{}
	dig := fold.New()
	var predSeries, obsSeries []float64
	predictedNext := 0.0
	var volume volumeScore

	for i := 0; i < cfg.Intervals; i++ {
		ivStart := time.Now()
		liveKnobs := db.Knobs()
		mode := liveKnobs.ExecutionMode

		// Phase 1: concurrent seeded execution with live observation.
		// Each worker is a real session admitted through the process list:
		// Open samples the live knobs (the ones read above) and wires
		// the session's private observation buffer, and serial admission
		// gives ascending IDs — the deterministic merge order. Each session
		// draws its queries from its own seeded stream.
		workers := make([]*session.Session, cfg.Sessions)
		for s := range workers {
			w, err := reg.Open(session.Options{Contenders: float64(cfg.Sessions)})
			if err != nil {
				return nil, fmt.Errorf("selfdrive: admitting session %d: %w", s, err)
			}
			workers[s] = w
		}
		perThread := make([]hw.Metrics, cfg.Sessions)
		queryIso := make([][]hw.Metrics, cfg.Sessions)
		errs := make([]error, cfg.Sessions)
		par.Do(cfg.Jobs, cfg.Sessions, func(s int) {
			rng := rand.New(rand.NewSource(unitSeed(cfg.Seed,
				fmt.Sprintf("drive/interval-%d/session-%d", i, s))))
			for _, q := range sc.sessionQueries(rng, i, ctl.published) {
				_, iso, err := workers[s].ExecPlan(q.name, q.fp, q.node)
				if err != nil {
					errs[s] = fmt.Errorf("selfdrive: session %d executing %s: %w", s, q.name, err)
					return
				}
				perThread[s].Add(iso)
				queryIso[s] = append(queryIso[s], iso)
			}
		})
		if err := errors.Join(errs...); err != nil {
			return nil, err
		}
		for _, w := range workers {
			res.FusedPipelines += w.ExecCtx().FusedPipelines
			res.VecBatches += w.ExecCtx().VecBatches
		}

		// Phase 2: whole-machine contention, including active build threads.
		var extraIdx []int
		if ctl.build != nil {
			work, idx := ctl.build.ActiveWork(cfg.IntervalUS)
			perThread = append(perThread, work...)
			extraIdx = idx
		}
		ratios := db.Machine.ContentionRatios(perThread, cfg.IntervalUS)
		var latSum float64
		nq := 0
		for s := 0; s < cfg.Sessions; s++ {
			for _, iso := range queryIso[s] {
				latSum += iso.ScaleVec(ratios[s]).ElapsedUS
				nq++
			}
		}
		observed := 0.0
		if nq > 0 {
			observed = latSum / float64(nq)
		}

		// Phase 3: drain the process list's observations (ascending
		// session-ID merge — the serial-order reduction) into the windowed
		// forecast store, score last interval's volume predictions against
		// them, then retire the interval's sessions.
		merged := reg.DrainObservations()
		sc.registerTemplates(hist.Clusterer(), db, merged.Counts)
		hist.Append(merged.Counts)
		names := merged.Templates()
		volume.settle(merged.Counts, names)
		for _, w := range workers {
			w.Close()
		}

		// Phase 4: advance an in-progress build by what contention left its
		// threads, and publish it once done.
		for e, j := range extraIdx {
			r := ratios[cfg.Sessions+e][hw.LabelElapsedUS]
			if r > 0 {
				ctl.build.Advance(j, cfg.IntervalUS/r)
			}
		}
		if err := ctl.publishIfDone(i); err != nil {
			return nil, err
		}

		report := IntervalReport{
			Interval: i, Queries: nq,
			ObservedAvgLatencyUS:  observed,
			PredictedAvgLatencyUS: predictedNext,
			Mode:                  mode,
			Building:              ctl.build != nil,
			IndexLive:             len(ctl.published) > 0,
			DOP:                   max(liveKnobs.ScanDOP, 1),
			Partitions:            max(liveKnobs.PartitionCount, 1),
		}
		if predictedNext > 0 {
			predSeries = append(predSeries, predictedNext)
			obsSeries = append(obsSeries, observed)
		}

		dig = foldInterval(dig, i, names, merged.Counts, observed, mode, ctl.actions)

		// Phase 5: forecast, plan, act, and predict the next interval.
		predictedNext = 0
		if hist.Len() >= 2 && i < cfg.Intervals-1 {
			volume.pending = predictVolumes(hist, cfg.HistoryWindow)
			f := volume.pending.forecast(cfg.IntervalUS, cfg.Sessions, rep)
			if (i+1)%cfg.PlanEvery == 0 {
				if err := ctl.act(i, f); err != nil {
					return nil, err
				}
			}
			// Predict the coming interval with whatever is now in effect.
			tr := modeling.NewTranslator(db, db.Knobs().ExecutionMode)
			tr.Cache = p.Cache
			var af *modeling.ActionForecast
			if b := ctl.build; b != nil {
				af = &modeling.ActionForecast{IndexBuild: &modeling.IndexBuildAction{
					Table:   b.Candidate.Table,
					KeyCols: b.Candidate.KeyColNames,
					Threads: b.Threads,
				}}
			}
			infStart := time.Now()
			pred, err := ms.PredictInterval(tr, f, af)
			if err != nil {
				return nil, err
			}
			res.InferenceUS = append(res.InferenceUS, float64(time.Since(infStart).Microseconds()))
			predictedNext = pred.AvgQueryLatencyUS
		}

		report.WallUS = float64(time.Since(ivStart).Microseconds())
		res.Intervals = append(res.Intervals, report)
	}

	res.Actions = ctl.actions
	res.CacheHits, res.CacheMisses = p.Cache.Stats()
	res.CacheHitRate = p.Cache.HitRate()
	res.CacheEvictions = p.Cache.Evictions()
	res.MAPE = forecast.MAPE(predSeries, obsSeries)
	res.VolumeMAPE = forecast.MAPE(volume.pred, volume.obs)
	res.HistoryEvicted = hist.Evicted()
	if c := hist.Clusterer(); c != nil {
		res.TemplatesSeen = c.Assigned()
		res.Clusters = c.Len()
	} else {
		res.TemplatesSeen = len(hist.Templates())
	}
	res.Digest = dig.Sum64()
	return res, nil
}
