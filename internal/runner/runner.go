package runner

import (
	"math/rand"
	"sync/atomic"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/fold"
	"mb2/internal/hw"
	"mb2/internal/metrics"
	"mb2/internal/ou"
	"mb2/internal/par"
	"mb2/internal/storage"
)

// Config controls the runners.
type Config struct {
	CPU hw.CPU
	// Repetitions is how many times each query is measured; labels are the
	// 20% trimmed mean across repetitions (Sec 6.2).
	Repetitions int
	// Warmups are unmeasured executions before measurement (Sec 6.2).
	Warmups int
	// MaxRows caps the sweep's exponential row ladder. Output-label
	// normalization makes larger data unnecessary (Sec 4.3).
	MaxRows int
	// Seed drives data generation.
	Seed int64
	// Jobs bounds the worker pool RunAll spreads sweep units over: <= 0
	// selects runtime.GOMAXPROCS(0), 1 is the serial path. Results are
	// bit-for-bit identical at every setting (see SweepUnit).
	Jobs int
	// NoiseScale, when positive, adds multiplicative measurement noise to
	// collected labels (exercised by the trimmed-mean ablation).
	NoiseScale float64
	// JHTSleepEvery propagates the simulated join-hash-table software
	// update (Sec 8.5) into the runners' execution contexts.
	JHTSleepEvery int
	// TrimFrac is the trimmed-mean fraction used to reduce repeated
	// measurements (default 0.2 per Sec 6.2; negative selects a plain
	// mean, used by the robust-statistics ablation).
	TrimFrac float64
	// MaxPartitions and MaxDOP cap the partition runner's sweep ladders
	// (partition counts {2,4,8}, DOP {1,2,4}). <= 0 keeps the full
	// ladder; lower caps shrink the partition-OU sweep without touching
	// any other unit, so digests of the surviving cells are unchanged.
	MaxPartitions int
	MaxDOP        int

	// noiseBase is the per-unit noise seed base, pre-derived by
	// SweepUnit.Run as Seed ^ fnv64a(unit name). It makes a unit's noise
	// stream a pure function of (Seed, unit) — independent of which worker
	// runs the unit and of everything that ran before it — which is what
	// keeps noisy runs deterministic under -j. Zero falls back to Seed
	// (measure called outside a sweep unit).
	noiseBase int64
	// noiseSalt distinguishes the noise seeds of successive measurement
	// series within one sweep unit. It is scoped to the unit (SweepUnit.Run
	// installs a fresh counter) rather than the process.
	noiseSalt *int64
}

// DefaultConfig returns the standard training configuration.
func DefaultConfig() Config {
	return Config{
		CPU:         hw.DefaultCPU(),
		Repetitions: 10,
		Warmups:     5,
		MaxRows:     100_000,
		Seed:        1,
		TrimFrac:    0.2,
	}
}

// rowLadder returns the exponential row-count sweep, capped at max.
func rowLadder(max int) []int {
	ladder := []int{8, 32, 128, 512, 2048, 8192, 32768, 100_000}
	out := ladder[:0:0]
	for _, n := range ladder {
		if n <= max {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		out = []int{max}
	}
	return out
}

// modes is the execution-mode knob sweep.
var modes = []catalog.ExecutionMode{catalog.Interpret, catalog.Compile}

// scratchDB builds a fresh database holding one table with the requested
// shape (see addScratchTable).
func scratchDB(cfg Config, name string, rows, extraCols, card int) *engine.DB {
	db := engine.Open(catalog.DefaultKnobs())
	addScratchTable(db, cfg, name, rows, extraCols, card)
	return db
}

// addScratchTable creates and loads one table: column 0 is a unique id,
// column 1 cycles through `card` distinct values, and the remaining
// extraCols alternate int and float payloads.
func addScratchTable(db *engine.DB, cfg Config, name string, rows, extraCols, card int) {
	cols := []catalog.Column{
		{Name: "id", Type: catalog.Int64},
		{Name: "grp", Type: catalog.Int64},
	}
	for i := 0; i < extraCols; i++ {
		if i%2 == 0 {
			cols = append(cols, catalog.Column{Name: "ic" + string(rune('a'+i)), Type: catalog.Int64})
		} else {
			cols = append(cols, catalog.Column{Name: "fc" + string(rune('a'+i)), Type: catalog.Float64})
		}
	}
	if _, err := db.CreateTable(name, catalog.NewSchema(cols...)); err != nil {
		panic(err)
	}
	if card < 1 {
		card = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	data := make([]storage.Tuple, rows)
	for i := 0; i < rows; i++ {
		t := storage.Tuple{
			storage.NewInt(int64(i)),
			storage.NewInt(int64(rng.Intn(card))),
		}
		for c := 0; c < extraCols; c++ {
			if c%2 == 0 {
				t = append(t, storage.NewInt(rng.Int63n(1000)))
			} else {
				t = append(t, storage.NewFloat(rng.Float64()*1000))
			}
		}
		data[i] = t
	}
	if err := db.BulkLoad(name, data); err != nil {
		panic(err)
	}
}

// measure executes fn Warmups+Repetitions times, each against a fresh
// collector, discards the warmups, and reduces the repeated measurements to
// trimmed-mean labels per recorded OU invocation (aligned by position;
// execution is deterministic). The reduced records are added to repo.
func measure(repo *metrics.Repository, cfg Config, fn func(col *metrics.Collector)) {
	reps := cfg.Repetitions
	if reps < 1 {
		reps = 1
	}
	var salt int64
	if cfg.noiseSalt != nil {
		salt = atomic.AddInt64(cfg.noiseSalt, 1)
	}
	noiseBase := cfg.noiseBase
	if noiseBase == 0 {
		noiseBase = cfg.Seed
	}
	var runs [][]metrics.Record
	for i := 0; i < cfg.Warmups+reps; i++ {
		col := metrics.NewCollector()
		if cfg.NoiseScale > 0 {
			col.SetNoise(cfg.NoiseScale, noiseBase+salt*1000003+int64(i))
		}
		fn(col)
		if i >= cfg.Warmups {
			runs = append(runs, col.Drain())
		}
	}
	if len(runs) == 0 {
		return
	}
	n := len(runs[0])
	for _, r := range runs {
		if len(r) < n {
			n = len(r)
		}
	}
	for pos := 0; pos < n; pos++ {
		labels := make([]hw.Metrics, len(runs))
		for ri, r := range runs {
			labels[ri] = r[pos].Labels
		}
		trim := cfg.TrimFrac
		if trim < 0 {
			trim = 0 // plain mean (ablation)
		} else if trim == 0 {
			trim = 0.2 // the paper's default
		}
		repo.Add(metrics.Record{
			Kind:     runs[0][pos].Kind,
			Features: runs[0][pos].Features,
			Labels:   metrics.TrimmedMeanLabels(labels, trim),
		})
	}
}

// SweepUnit is one independent cell of an OU-runner's parameter sweep: it
// builds its own scratch database, runs its own measurement series, and
// emits records into whatever repository it is given. Units never share
// mutable state, so RunAll can execute them on any worker in any order and
// recover the serial result by merging per-unit repositories in unit order.
type SweepUnit struct {
	// Name identifies the unit (runner name plus its sweep coordinates).
	// It is unique across all runners and seeds the unit's noise stream.
	Name string
	run  func(repo *metrics.Repository, cfg Config)
}

// Run executes the unit. The unit gets a fresh noise-salt counter and a
// noise seed base derived from (cfg.Seed, unit name), so its output is a
// pure function of cfg — independent of scheduling.
func (u SweepUnit) Run(repo *metrics.Repository, cfg Config) {
	cfg.noiseSalt = new(int64)
	cfg.noiseBase = unitSeed(cfg.Seed, u.Name)
	u.run(repo, cfg)
}

// unitSeed derives a unit's seed as seed XOR fnv64a(name): stable across
// processes, independent of unit execution order.
func unitSeed(seed int64, name string) int64 {
	return seed ^ int64(fold.New().Str(name).Sum64())
}

// RunReport summarizes a data-generation run (the Table 2 accounting).
type RunReport struct {
	Records     int
	SimulatedUS float64 // total simulated DBMS time spent exercising OUs
}

// OURunner is one OU-specific microbenchmark.
type OURunner struct {
	Name string
	OUs  []ou.Kind
	// Units enumerates the runner's sweep as independent cells, in the
	// order the serial sweep visits them.
	Units func(cfg Config) []SweepUnit
	// Run executes the full sweep serially into repo (all units in order).
	Run func(repo *metrics.Repository, cfg Config)
}

// ouRunner wires a unit generator into an OURunner whose Run executes the
// units serially in enumeration order.
func ouRunner(name string, ous []ou.Kind, units func(cfg Config) []SweepUnit) OURunner {
	return OURunner{
		Name:  name,
		OUs:   ous,
		Units: units,
		Run: func(repo *metrics.Repository, cfg Config) {
			for _, u := range units(cfg) {
				u.Run(repo, cfg)
			}
		},
	}
}

// AllRunners returns every OU-runner, covering the 19 paper OUs plus the
// partitioned-execution and vectorized-execution extension OUs.
func AllRunners() []OURunner {
	return []OURunner{
		ouRunner("seq_scan", []ou.Kind{ou.SeqScan, ou.Arithmetic}, seqScanUnits),
		ouRunner("idx_scan", []ou.Kind{ou.IdxScan}, idxScanUnits),
		ouRunner("hash_join", []ou.Kind{ou.HashJoinBuild, ou.HashJoinProbe}, hashJoinUnits),
		ouRunner("agg", []ou.Kind{ou.AggBuild, ou.AggProbe}, aggUnits),
		ouRunner("sort", []ou.Kind{ou.SortBuild, ou.SortIter}, sortUnits),
		ouRunner("output", []ou.Kind{ou.Output}, outputUnits),
		ouRunner("dml", []ou.Kind{ou.Insert, ou.Update, ou.Delete}, dmlUnits),
		ouRunner("index_build", []ou.Kind{ou.IndexBuild}, indexBuildUnits),
		ouRunner("gc", []ou.Kind{ou.GC}, gcUnits),
		ouRunner("wal", []ou.Kind{ou.LogSerialize, ou.LogFlush}, walUnits),
		ouRunner("txn", []ou.Kind{ou.TxnBegin, ou.TxnCommit}, txnUnits),
		ouRunner("partition", []ou.Kind{ou.ParallelScan, ou.PartitionProbe, ou.ExchangeMerge}, partitionUnits),
		ouRunner("vec", []ou.Kind{ou.VecScan, ou.VecFilter, ou.VecProbe}, vecUnits),
		// Recovery OUs last: their units (and records) append after every
		// existing runner's, so adding them leaves the per-OU record order
		// — and therefore every previously trained model — untouched.
		ouRunner("recovery", []ou.Kind{ou.Replay, ou.IndexRebuild, ou.CheckpointWrite}, recoveryUnits),
	}
}

// RunAll executes every OU-runner into the repository and reports volume.
// Units run on cfg.Jobs workers; each fills a private repository and the
// parts are merged in unit order, so the repository's per-OU record order
// (which downstream shuffles and splits key off) is identical to a serial
// run at any worker count.
func RunAll(repo *metrics.Repository, cfg Config) RunReport {
	before := repo.NumRecords()
	var units []SweepUnit
	for _, r := range AllRunners() {
		units = append(units, r.Units(cfg)...)
	}
	parts := make([]*metrics.Repository, len(units))
	par.Do(cfg.Jobs, len(units), func(i int) {
		part := metrics.NewRepository()
		units[i].Run(part, cfg)
		parts[i] = part
	})
	for _, part := range parts {
		repo.Merge(part)
	}
	rep := RunReport{Records: repo.NumRecords() - before}
	for _, k := range repo.Kinds() {
		for _, rec := range repo.Records(k) {
			rep.SimulatedUS += rec.Labels.ElapsedUS
		}
	}
	return rep
}
