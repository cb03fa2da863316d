// Package workload is the one statement source: the four OLTP-Bench
// benchmarks the paper evaluates with (Sec 8) — TPC-H (OLAP), TPC-C, TATP
// and SmallBank (OLTP) — each written once. A benchmark declares its tables
// and primary-key indexes as one Schema value, loads a structurally
// faithful, scaled-down dataset, and exposes its query/transaction
// templates as cached physical plans with optimizer estimates (the paper
// assumes plans are cached, Sec 3).
//
// The same package holds what the correctness harnesses consume:
// SmallBank's seeded transaction draw (the concurrent stress schedule of
// internal/check draws from it), the serial transaction Streams of
// SmallBank and TATP (the crash sweep, the failover drill and mb2-server
// -repl run them through Apply), and the row-model oracle those runs are
// judged by (Stream.ModelAfter, CaptureState, State.Diff). TPC-C's read
// templates come from plain builders (OrdersPoint, StockLevel,
// TPCC.CustomerByLastScan) that both Procedures and the control loop of
// internal/selfdrive call.
package workload

import (
	"math/rand"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/hw"
	"mb2/internal/plan"
	"mb2/internal/runner"
	"mb2/internal/storage"
)

// Benchmark is one end-to-end workload.
type Benchmark interface {
	// Name identifies the benchmark.
	Name() string
	// Load creates the schema and loads data at the given scale factor.
	Load(db *engine.DB, scale float64, seed int64) error
	// Templates returns representative cached query plans with optimizer
	// estimates filled in from the loaded data.
	Templates(db *engine.DB, seed int64) []runner.QueryTemplate
}

// Table is one table of a workload's schema.
type Table struct {
	Name string
	Cols []catalog.Column
}

// Index is one primary-key index of a workload's schema.
type Index struct {
	Name, Table string
	Key         []string
}

// Schema is a workload's tables and primary-key indexes, declared once.
// Indexes are built in declaration order, which fixes their catalog IDs.
type Schema struct {
	Tables  []Table
	Indexes []Index
	Unique  bool // the primary-key indexes enforce key uniqueness
}

// createTables creates every table, in declaration order.
func (s Schema) createTables(db *engine.DB) error {
	for _, t := range s.Tables {
		if _, err := db.CreateTable(t.Name, catalog.NewSchema(t.Cols...)); err != nil {
			return err
		}
	}
	return nil
}

// createIndexes builds every primary-key index over the rows the tables
// hold, single-threaded.
func (s Schema) createIndexes(db *engine.DB) error {
	for _, ix := range s.Indexes {
		if _, _, err := db.CreateIndex(nil, db.Machine.CPU, ix.Name, ix.Table, ix.Key, s.Unique, 1); err != nil {
			return err
		}
	}
	return nil
}

// Open creates an empty database on the given devices (nil: a fresh
// MemDevice) and materializes the schema in it: every table, then every
// index, before any data, so the write path maintains the indexes from the
// first row. It returns the tables in declaration order.
func (s Schema) Open(knobs catalog.Knobs, logDev, ckptDev hw.BlockDevice) (*engine.DB, []*storage.Table, error) {
	db := engine.OpenOnDevices(knobs, logDev, ckptDev)
	if err := s.createTables(db); err != nil {
		return nil, nil, err
	}
	if err := s.createIndexes(db); err != nil {
		return nil, nil, err
	}
	tables := make([]*storage.Table, len(s.Tables))
	for i, t := range s.Tables {
		tables[i] = db.Table(t.Name)
	}
	return db, tables, nil
}

func ic(name string) catalog.Column { return catalog.Column{Name: name, Type: catalog.Int64} }
func fc(name string) catalog.Column { return catalog.Column{Name: name, Type: catalog.Float64} }

// est builds an estimate pair.
func est(rows, distinct float64) plan.Estimates {
	if rows < 1 {
		rows = 1
	}
	if distinct < 1 {
		distinct = 1
	}
	return plan.Estimates{Rows: rows, Distinct: distinct}
}

// pick returns a deterministic pseudo-random int in [0, n).
func pick(rng *rand.Rand, n int) int64 {
	if n <= 0 {
		return 0
	}
	return int64(rng.Intn(n))
}
