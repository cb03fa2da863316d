package selfdrive

import (
	"fmt"
	"math"
	"time"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/forecast"
	"mb2/internal/modeling"
	"mb2/internal/plan"
	"mb2/internal/planner"
	"mb2/internal/workload"
)

// CompressBenchConfig configures the workload-compression sweep: for each
// template-population size, the forecast+plan inference step runs with and
// without compression over a synthetic high-cardinality trace (every
// template active every interval, diurnal volume curve, mid-run skew
// shift), and the per-interval inference wall clock is recorded. The
// headline: compressed cost is a function of K, uncompressed cost grows
// with N.
type CompressBenchConfig struct {
	Seed int64
	// TemplateCounts are the population sizes to sweep (default
	// 12, 1000, 10000, 100000).
	TemplateCounts []int
	// Clusters is the compression bound K (default 64).
	Clusters int
	// Intervals is how many intervals each point runs (default 8);
	// uncompressed points at large N are trimmed to keep the sweep's
	// wall clock sane (the per-interval averages stay comparable).
	Intervals int
}

// DefaultCompressBenchConfig returns the standard sweep.
func DefaultCompressBenchConfig() CompressBenchConfig {
	return CompressBenchConfig{
		Seed:           1,
		TemplateCounts: []int{12, 1000, 10000, 100000},
		Clusters:       64,
		Intervals:      8,
	}
}

// CompressPoint is one (population size, compression) cell's measurement.
type CompressPoint struct {
	Templates  int  `json:"templates"`
	Compressed bool `json:"compressed"`
	// Clusters is the live cluster count compression settled on (0 when
	// off) — bounded by K, usually far below it.
	Clusters int `json:"clusters"`
	// ForecastQueries is the planner's per-step input size: template
	// population uncompressed, cluster count compressed.
	ForecastQueries int `json:"forecast_queries"`
	Intervals       int `json:"intervals"`
	// IngestUSPerInterval is History.Append plus (compressed) first-sight
	// cluster assignment — work proportional to observed data volume.
	IngestUSPerInterval float64 `json:"ingest_us_per_interval"`
	// ForecastPlanUSPerInterval is the inference hot path: volume
	// forecasting plus planner action ranking, averaged per planning
	// interval. This is the number compression flattens.
	ForecastPlanUSPerInterval float64 `json:"forecast_plan_us_per_interval"`
	ForecastPlanMaxUS         float64 `json:"forecast_plan_max_us"`
	// VolumeMAPE is the per-template volume-forecast error over a
	// deterministic sample of templates (fan-out predictions when
	// compressed) — the accuracy compression must not destroy.
	VolumeMAPE float64 `json:"volume_mape"`
	// CacheEvictions counts prediction-cache LRU evictions: nonzero when
	// the population outgrows the bounded cache (the uncompressed
	// high-cardinality failure mode).
	CacheEvictions uint64 `json:"cache_evictions"`
}

// CompressBenchResult is the whole sweep.
type CompressBenchResult struct {
	Points []CompressPoint
	// SpeedupMaxN is uncompressed/compressed forecast+plan wall clock at
	// the largest swept population.
	SpeedupMaxN float64
}

// RunCompressBench sweeps forecast+plan inference cost across template
// populations with and without workload compression. The database and
// models are shared across points (the bench never applies actions, so
// nothing mutates); each point gets a fresh history, clusterer, and
// prediction cache.
func RunCompressBench(cfg CompressBenchConfig, ms *modeling.ModelSet) (*CompressBenchResult, error) {
	d := DefaultCompressBenchConfig()
	if cfg.Seed == 0 {
		cfg.Seed = d.Seed
	}
	if len(cfg.TemplateCounts) == 0 {
		cfg.TemplateCounts = d.TemplateCounts
	}
	if cfg.Clusters < 1 {
		cfg.Clusters = d.Clusters
	}
	if cfg.Intervals < 3 {
		cfg.Intervals = d.Intervals
	}

	db := engine.Open(catalog.DefaultKnobs())
	bench := workload.TPCC{CustomersPerDistrict: DefaultConfig().CustomersPerDistrict}
	if err := bench.Load(db, 1, cfg.Seed); err != nil {
		return nil, fmt.Errorf("selfdrive: loading compress-bench workload: %w", err)
	}

	res := &CompressBenchResult{}
	for _, n := range cfg.TemplateCounts {
		for _, compressed := range []bool{false, true} {
			pt, err := runCompressPoint(cfg, db, ms, n, compressed)
			if err != nil {
				return nil, err
			}
			res.Points = append(res.Points, pt)
		}
	}
	// The last two points are the largest population, uncompressed then
	// compressed.
	last := res.Points[len(res.Points)-2:]
	if last[1].ForecastPlanUSPerInterval > 0 {
		res.SpeedupMaxN = last[0].ForecastPlanUSPerInterval / last[1].ForecastPlanUSPerInterval
	}
	return res, nil
}

func runCompressPoint(cfg CompressBenchConfig, db *engine.DB, ms *modeling.ModelSet, n int, compressed bool) (CompressPoint, error) {
	// Large uncompressed points are trimmed: their per-interval cost is the
	// thing being demonstrated, and a handful of intervals measures it
	// without letting the sweep run for minutes.
	intervals := cfg.Intervals
	if !compressed && n > 10_000 {
		intervals = min(intervals, 4)
	}
	pt := CompressPoint{Templates: n, Compressed: compressed, Intervals: intervals}

	driveCfg := DefaultConfig()
	driveCfg.SkewShiftAt = intervals / 2
	if n > len(scenarioBases) {
		driveCfg.Templates = n
	}
	if compressed {
		driveCfg.Clusters = cfg.Clusters
	}
	// The trace's day is double the run length: the curve is a
	// rising-then-easing hump with no near-zero trough, so late-interval
	// trends stay positive and every planning step sees a live forecast.
	period := 2 * cfg.Intervals
	sc, err := newScenario(driveCfg)
	if err != nil {
		return pt, err
	}
	population := benchPopulation(sc)
	sample := benchSample(population, 1024)

	hist := newHistory(driveCfg.IntervalUS, driveCfg.HistoryWindow, driveCfg.Clusters)
	p := planner.New(db, ms)
	p.Cache = modeling.NewPredictionCache()
	// A deliberately narrow action space: one candidate per family. The
	// bench measures how inference cost scales with forecast size, not
	// how many candidates the planner can afford to weigh.
	candCfg := planner.CandidateConfig{
		ThreadCandidates:    []int{2},
		MaxIndexCandidates:  1,
		PartitionCandidates: []int{2},
		DOPCandidates:       []int{2},
	}
	rep := func(name string) plan.Node { return sc.repFor(name, nil) }

	var ingestUS, fpUS float64
	fpSteps := 0
	var volume volumeScore

	for i := 0; i < intervals; i++ {
		counts := syntheticCounts(sc, population, i, period)

		start := time.Now()
		sc.registerTemplates(hist.Clusterer(), db, counts)
		hist.Append(counts)
		ingestUS += float64(time.Since(start).Microseconds())

		// Score last step's volume predictions on the sampled templates.
		volume.settle(counts, sample)

		if hist.Len() < 2 || i == intervals-1 {
			continue
		}
		start = time.Now()
		volume.pending = predictVolumes(hist, driveCfg.HistoryWindow)
		f := volume.pending.forecast(driveCfg.IntervalUS, driveCfg.Sessions, rep)
		if _, err := p.PlanActions(db.Knobs().ExecutionMode, f, candCfg); err != nil {
			return pt, err
		}
		stepUS := float64(time.Since(start).Microseconds())
		fpUS += stepUS
		pt.ForecastPlanMaxUS = max(pt.ForecastPlanMaxUS, stepUS)
		fpSteps++
		pt.ForecastQueries = max(pt.ForecastQueries, len(f.Queries))
	}

	if fpSteps > 0 {
		pt.ForecastPlanUSPerInterval = fpUS / float64(fpSteps)
	}
	pt.IngestUSPerInterval = ingestUS / float64(intervals)
	pt.VolumeMAPE = forecast.MAPE(volume.pred, volume.obs)
	pt.CacheEvictions = p.Cache.Evictions()
	if c := hist.Clusterer(); c != nil {
		pt.Clusters = c.Len()
	}
	return pt, nil
}

// benchPopulation lists the point's template names: the four bases for the
// plain population, the exploded variant set otherwise.
func benchPopulation(sc *scenario) []string {
	if !sc.exploded() {
		return scenarioBases[:]
	}
	var out []string
	for b := range scenarioBases {
		for ord := 0; ord < sc.variantsPerBase(b); ord++ {
			out = append(out, variantName(scenarioBases[b], ord))
		}
	}
	return out
}

// benchSample stride-samples up to max names for MAPE accounting, so the
// accuracy check costs the same at every population size.
func benchSample(population []string, max int) []string {
	if len(population) <= max {
		return population
	}
	stride := len(population) / max
	out := make([]string, 0, max)
	for i := 0; i < len(population) && len(out) < max; i += stride {
		out = append(out, population[i])
	}
	return out
}

// syntheticCounts generates one interval's per-template volumes: a
// hash-derived base volume per template, a hot subset carrying 4x volume
// (rotated by the skew shift), all scaled by the diurnal curve over a day
// of period intervals. Every template is active every interval — the
// production-trace shape where per-template iteration hurts most. Purely
// hash-derived: the same (population, interval) always yields the same
// counts.
func syntheticCounts(sc *scenario, population []string, interval, period int) map[string]float64 {
	curve := diurnal(interval, period)
	shift := sc.cfg.SkewShiftAt > 0 && interval >= sc.cfg.SkewShiftAt

	nv := len(population) / len(scenarioBases) // variants per base (>= 1)
	counts := make(map[string]float64, len(population))
	for _, name := range population {
		base := 1 + float64(nameHash(name)%16)
		_, ord := splitVariant(name)
		if ord >= 0 {
			hotOrd := ord
			if shift {
				hotOrd = (ord + nv/2) % nv
			}
			if hotOrd < (nv+7)/8 {
				base *= 4
			}
		}
		counts[name] = math.Round(base * curve)
	}
	return counts
}
