// Package execbench defines the microbenchmark scenarios for the execution
// engine's hot pipelines: the plans, data and contexts behind the `go test
// -bench` suite in internal/exec/bench_test.go.
package execbench

import (
	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/exec"
	"mb2/internal/hw"
	"mb2/internal/metrics"
	"mb2/internal/plan"
	"mb2/internal/storage"
)

// Scenario is one benchmarked pipeline: a cached plan over the standard
// benchmark table.
type Scenario struct {
	Name string
	Plan plan.Node
}

// loadItems creates and fills the standard benchmark table: "items" with n
// rows (id unique, grp = id % 100, val = float(id), name fixed).
func loadItems(db *engine.DB, n int) error {
	schema := catalog.NewSchema(
		catalog.Column{Name: "id", Type: catalog.Int64},
		catalog.Column{Name: "grp", Type: catalog.Int64},
		catalog.Column{Name: "val", Type: catalog.Float64},
		catalog.Column{Name: "name", Type: catalog.Varchar, Width: 12},
	)
	if _, err := db.CreateTable("items", schema); err != nil {
		return err
	}
	rows := make([]storage.Tuple, n)
	for i := 0; i < n; i++ {
		rows[i] = storage.Tuple{
			storage.NewInt(int64(i)),
			storage.NewInt(int64(i % 100)),
			storage.NewFloat(float64(i)),
			storage.NewString("bench-row"),
		}
	}
	return db.BulkLoad("items", rows)
}

// NewDB loads the benchmark database: the items table and a primary-key
// index on id.
func NewDB(n int) (*engine.DB, error) {
	db := engine.Open(catalog.DefaultKnobs())
	if err := loadItems(db, n); err != nil {
		return nil, err
	}
	if _, _, err := db.CreateIndex(nil, hw.DefaultCPU(), "items_id", "items", []string{"id"}, false, 2); err != nil {
		return nil, err
	}
	return db, nil
}

// NewPartitionedDB loads the items table and a half-sized "pairs" table,
// both hash-partitioned on id, with the scan DOP knob raised: the
// configuration the partition sweep runs over. parts/dop <= 1 keep the
// serial defaults.
func NewPartitionedDB(n, parts, dop int) (*engine.DB, error) {
	knobs := catalog.DefaultKnobs()
	if parts > 1 {
		knobs.PartitionCount = parts
	}
	if dop > 1 {
		knobs.ScanDOP = dop
	}
	db := engine.Open(knobs)
	if err := loadItems(db, n); err != nil {
		return nil, err
	}
	if _, err := db.CreateTable("pairs", catalog.NewSchema(
		catalog.Column{Name: "id", Type: catalog.Int64},
		catalog.Column{Name: "w", Type: catalog.Float64},
	)); err != nil {
		return nil, err
	}
	half := make([]storage.Tuple, n/2)
	for i := 0; i < n/2; i++ {
		half[i] = storage.Tuple{storage.NewInt(int64(i)), storage.NewFloat(float64(i) / 2)}
	}
	if err := db.BulkLoad("pairs", half); err != nil {
		return nil, err
	}
	return db, nil
}

// PartitionScenarios returns the partitioned-execution pipelines: the
// exchange-style parallel scan and the partition-wise hash join (bare
// partition-key scans on both sides, the shape plan.ChooseDriver puts on
// the Exchange driver). On an unpartitioned database both degrade to the
// serial paths, so the same scenarios measure every (partitions, dop) cell.
func PartitionScenarios(n int) []Scenario {
	est := func(rows float64) plan.Estimates {
		if rows < 1 {
			rows = 1
		}
		return plan.Estimates{Rows: rows, Distinct: rows}
	}
	return []Scenario{
		{
			Name: "parallel_scan_filter",
			Plan: &plan.SeqScanNode{
				Table:     "items",
				Filter:    plan.Cmp{Op: plan.LT, L: plan.Col(0), R: plan.IntConst(int64(n / 2))},
				Rows:      est(float64(n / 2)),
				TableRows: float64(n),
			},
		},
		{
			Name: "partition_wise_join",
			Plan: &plan.HashJoinNode{
				Left:      &plan.SeqScanNode{Table: "items", Rows: est(float64(n)), TableRows: float64(n)},
				Right:     &plan.SeqScanNode{Table: "pairs", Rows: est(float64(n / 2)), TableRows: float64(n / 2)},
				LeftKeys:  []int{0},
				RightKeys: []int{0},
				Rows:      est(float64(n / 2)),
			},
		},
	}
}

// Scenarios returns the benchmarked pipelines for a database of n rows.
func Scenarios(n int) []Scenario {
	half := int64(n / 2)
	build := int64(n / 4)
	outer := int64(n / 10)
	est := func(rows float64) plan.Estimates {
		if rows < 1 {
			rows = 1
		}
		return plan.Estimates{Rows: rows, Distinct: rows}
	}
	return []Scenario{
		{
			// The tentpole target: scan → filter → project in one pass.
			Name: "seq_scan_filter_project",
			Plan: &plan.SeqScanNode{
				Table:     "items",
				Filter:    plan.Cmp{Op: plan.LT, L: plan.Col(0), R: plan.IntConst(half)},
				Project:   []int{0, 2},
				Rows:      est(float64(half)),
				TableRows: float64(n),
			},
		},
		{
			// Unique-key hash join: build n/4 rows, stream-probe the full
			// table, emit n/4 joined rows.
			Name: "hash_join",
			Plan: &plan.HashJoinNode{
				Left: &plan.SeqScanNode{
					Table:     "items",
					Filter:    plan.Cmp{Op: plan.LT, L: plan.Col(0), R: plan.IntConst(build)},
					Rows:      est(float64(build)),
					TableRows: float64(n),
				},
				Right:     &plan.SeqScanNode{Table: "items", Rows: est(float64(n)), TableRows: float64(n)},
				LeftKeys:  []int{0},
				RightKeys: []int{0},
				Rows:      est(float64(build)),
			},
		},
		{
			// Duplicate-heavy hash join: build the whole table under its 100
			// grp values (n/100 rows per key), probe one row per key, emit n
			// joined rows.
			Name: "hash_join_dups",
			Plan: &plan.HashJoinNode{
				Left: &plan.SeqScanNode{Table: "items", Rows: est(float64(n)), TableRows: float64(n)},
				Right: &plan.SeqScanNode{
					Table:     "items",
					Filter:    plan.Cmp{Op: plan.LT, L: plan.Col(0), R: plan.IntConst(100)},
					Rows:      est(100),
					TableRows: float64(n),
				},
				LeftKeys:  []int{1},
				RightKeys: []int{1},
				Rows:      est(float64(n)),
			},
		},
		{
			// An aggregation build consuming its chain: half the table
			// folds into the 100 groups.
			Name: "seq_scan_filter_agg",
			Plan: &plan.AggNode{
				Child: &plan.SeqScanNode{
					Table:     "items",
					Filter:    plan.Cmp{Op: plan.LT, L: plan.Col(0), R: plan.IntConst(half)},
					Rows:      est(float64(half)),
					TableRows: float64(n),
				},
				GroupBy: []int{1},
				Aggs:    []plan.AggSpec{{Fn: plan.Count, Arg: plan.Col(0)}, {Fn: plan.Sum, Arg: plan.Col(2)}},
				Rows:    est(100),
			},
		},
		{
			// A sort build consuming its chain: the ten largest val of half
			// the table.
			Name: "seq_scan_filter_topn",
			Plan: &plan.SortNode{
				Child: &plan.SeqScanNode{
					Table:     "items",
					Filter:    plan.Cmp{Op: plan.LT, L: plan.Col(0), R: plan.IntConst(half)},
					Rows:      est(float64(half)),
					TableRows: float64(n),
				},
				Keys:  []plan.SortKey{{Col: 2, Desc: true}},
				Limit: 10,
				Rows:  est(10),
			},
		},
		{
			// Index nested-loop join: n/10 outer rows, one point probe each.
			Name: "index_join",
			Plan: &plan.IndexJoinNode{
				Outer: &plan.SeqScanNode{
					Table:     "items",
					Filter:    plan.Cmp{Op: plan.LT, L: plan.Col(0), R: plan.IntConst(outer)},
					Rows:      est(float64(outer)),
					TableRows: float64(n),
				},
				Table:     "items",
				Index:     "items_id",
				OuterKeys: []int{0},
				Rows:      est(float64(outer)),
			},
		},
	}
}

// Variant is one execution configuration of a scenario.
type Variant struct {
	Name          string
	Mode          catalog.ExecutionMode
	DisableFusion bool
}

// Variants returns the four configurations every scenario runs under: the
// interpreted baseline, both compiled flavors, and the vectorized
// batch-at-a-time mode.
func Variants() []Variant {
	return []Variant{
		{Name: "interpreted", Mode: catalog.Interpret},
		{Name: "compiled_unfused", Mode: catalog.Compile, DisableFusion: true},
		{Name: "compiled_fused", Mode: catalog.Compile},
		{Name: "vectorized", Mode: catalog.Vectorize},
	}
}

// NewCtx builds a worker context for one variant. The tracker has no
// collector: brackets still run (their charges are part of the measured
// work) but records are dropped, so benchmarks measure execution, not
// record accumulation.
func NewCtx(db *engine.DB, v Variant) *exec.Ctx {
	return &exec.Ctx{
		DB:            db,
		Tracker:       metrics.NewTracker(nil, hw.NewThread(hw.DefaultCPU())),
		Mode:          v.Mode,
		Contenders:    1,
		DisableFusion: v.DisableFusion,
	}
}

// NewCtxDOP builds a worker context for one variant with the parallel
// operators' degree of parallelism set — the context the partition sweep
// benchmarks under.
func NewCtxDOP(db *engine.DB, v Variant, dop int) *exec.Ctx {
	ctx := NewCtx(db, v)
	ctx.DOP = dop
	return ctx
}
