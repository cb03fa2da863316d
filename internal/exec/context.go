// Package exec implements the execution engine: materialized operators for
// every execution OU in Table 1, DML brackets over the engine's one write
// path (engine.Insert/Update/Delete: versions, index entries, redo records),
// transaction OUs, and the background maintenance tasks (GC, WAL). Every
// operator brackets its work with the metrics tracker so training runs
// produce (feature, label) records per OU invocation.
package exec

import (
	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/hw"
	"mb2/internal/metrics"
	"mb2/internal/ou"
	"mb2/internal/storage"
	"mb2/internal/txn"
)

// interpretFactor is the per-tuple instruction overhead of the bytecode
// interpreter relative to JIT-compiled pipelines. Memory traffic is
// unaffected; only operator logic pays it.
const interpretFactor = 2.8

// Ctx carries everything one worker needs to execute plans.
type Ctx struct {
	DB      *engine.DB
	Tracker *metrics.Tracker
	Txn     *txn.Txn
	Mode    catalog.ExecutionMode

	// Contenders is the number of worker threads concurrently mutating
	// shared structures (latch-charge scaling).
	Contenders float64

	// DOP is the degree of parallelism for partitioned operators: the
	// number of worker chains partition scans and partition-wise joins fan
	// out over (parallel.go). Values <= 1 run partitions on one chain;
	// unpartitioned tables ignore it entirely. It is a knob
	// (catalog.Knobs.ScanDOP) and a self-driving action.
	DOP int
	// TxnRate is the transaction arrival rate in the current forecast
	// interval: the contending txn OUs' feature (Sec 4.2).
	TxnRate float64

	// JHTSleepEvery injects a 1us sleep every N tuples into the join
	// hash-table build: the simulated software update of the adaptation
	// experiment (Sec 8.5). Zero disables it.
	JHTSleepEvery int

	// Observer, when set, receives one event per query executed through
	// ExecuteObserved: the live-path metrics stream feeding the online
	// control loop (template counts for forecasting, observed resource
	// usage for predicted-vs-actual accounting).
	Observer QueryObserver

	// Interrupt, when set, is polled at every operator boundary and once per
	// chunk of a sequential scan (a breaker fused into its chain has no
	// boundary of its own); a non-nil return aborts the plan with that error
	// before the next operator or chunk runs, and the aborted scan emits no
	// OU record. The session layer points it at the session context so a
	// process-list kill lands mid-query instead of after the statement
	// finishes. The poll itself charges nothing, so queries that complete
	// are bit-for-bit identical whether or not an interrupt hook is installed.
	Interrupt func() error

	// DisableFusion runs compiled-mode plans on the Materialize driver: the
	// reference the equivalence tests and the execution benchmarks compare
	// the RowPass driver against. Only plan.ChooseDriver, through
	// Ctx.DriverMode, reads it.
	DisableFusion bool

	// FusedPipelines counts the fragments this context ran on the RowPass
	// driver (one scan chain or hash join each; an index join has one body
	// for every mode and is never counted), for observability in the control
	// loop and CLIs.
	FusedPipelines int

	// VecBatches counts column-major batches this context processed on the
	// VecPass driver (vectorized.go): the vec-mode analogue of
	// FusedPipelines, for observability in the control loop and CLIs.
	VecBatches int

	// keyBuf is the worker-private scratch buffer join probes and
	// aggregation folds encode transient keys into (DML index maintenance is
	// the engine's). A Ctx is single-worker by contract, so reuse needs no
	// synchronization. Never handed to anything that retains keys.
	keyBuf []byte

	// seen is readPostings' scratch set, empty between keys.
	seen map[storage.RowID]bool

	// arena backs projected and joined output tuples (see pool.go).
	arena valueArena

	// jt is the hash join's build table on the streaming drivers, reused
	// build-to-build so steady-state builds allocate nothing (see hashJoin).
	jt joinTable

	// stages is the scratch list the running scan chain's stages live in,
	// reused chain to chain (see chainStages).
	stages []chainStage
}

// NewCtx builds a context with a fresh collector-less tracker on the given
// CPU — convenient for tests and loaders.
func NewCtx(db *engine.DB, cpu hw.CPU) *Ctx {
	return &Ctx{
		DB:         db,
		Tracker:    metrics.NewTracker(nil, hw.NewThread(cpu)),
		Mode:       db.Knobs().ExecutionMode,
		Contenders: 1,
	}
}

// Thread returns the worker's hardware thread.
func (c *Ctx) Thread() *hw.Thread { return c.Tracker.Thread() }

func (c *Ctx) compiled() bool { return c.Mode == catalog.Compile }

// interrupted polls the Interrupt hook.
func (c *Ctx) interrupted() error {
	if c.Interrupt == nil {
		return nil
	}
	return c.Interrupt()
}

// DriverMode, PartitionCount and PartitionKeyCols implement plan.Config over
// the live engine.
func (c *Ctx) DriverMode() catalog.ExecutionMode {
	if c.DisableFusion && c.Mode == catalog.Compile {
		return catalog.Interpret
	}
	return c.Mode
}

func (c *Ctx) PartitionCount(table string) int {
	if t := c.DB.Table(table); t != nil {
		return t.PartitionCount()
	}
	return 0
}

func (c *Ctx) PartitionKeyCols(table string) []int { return c.DB.Table(table).PartitionKeyCols() }

// compute charges operator logic to the worker's own thread, scaled by the
// execution mode.
func (c *Ctx) compute(n float64) { c.computeOn(c.Thread(), n) }

// computeOn is compute charged to th: a partition worker chain's thread.
func (c *Ctx) computeOn(th *hw.Thread, n float64) {
	if !c.compiled() {
		n *= interpretFactor
	}
	th.Compute(n)
}

// vecCompute charges vectorized-kernel logic. Unlike compute it never pays
// the interpreter factor: batch kernels amortize dispatch across lanes, so
// their per-tuple cost is a property of the kernel, not of the mode's
// interpreter. Only the VEC_* OU brackets use it.
func (c *Ctx) vecCompute(n float64) { c.Thread().Compute(n) }

// snapshot returns the worker's visibility pair. With no open transaction
// it reads the latest committed state.
func (c *Ctx) snapshot() (txnID, readTS uint64) {
	if c.Txn != nil {
		return c.Txn.ID, c.Txn.ReadTS
	}
	return 0, c.DB.Txns.LastCommitTS()
}

// Begin opens a transaction on the context, recording the TXN_BEGIN OU.
func (c *Ctx) Begin() *txn.Txn {
	start := c.Tracker.Start()
	t := c.DB.Txns.Begin(c.Thread())
	feats := ou.TxnFeatures(c.TxnRate, float64(c.DB.Txns.ActiveCount()))
	c.Tracker.Stop(ou.TxnBegin, feats, start)
	c.Txn = t
	return t
}

// Commit commits the context's transaction, recording the TXN_COMMIT OU.
// The commit record reaches the WAL through the engine's ordered commit
// path, so the log's commit order matches commit-timestamp order. The index
// entries it retires are dropped after the bracket, charged to no OU.
func (c *Ctx) Commit() error {
	start := c.Tracker.Start()
	active := float64(c.DB.Txns.ActiveCount())
	_, err := c.DB.CommitLogged(c.Txn, c.Thread(), func() {
		c.Tracker.Stop(ou.TxnCommit, ou.TxnFeatures(c.TxnRate, active), start)
	})
	c.Txn = nil
	return err
}

// Abort rolls the context's transaction back, index entries included (no
// OU: the paper does not model aborts, Sec 3).
func (c *Ctx) Abort() error {
	err := c.DB.Abort(c.Txn, c.Thread())
	c.Txn = nil
	return err
}
