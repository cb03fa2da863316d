package check

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/exec"
	"mb2/internal/index"
	"mb2/internal/par"
	"mb2/internal/storage"
	"mb2/internal/txn"
	"mb2/internal/workload"
)

// Config parameterizes one stress run. Zero values select defaults sized so
// a full run finishes quickly under -race while still exercising commits,
// aborts, write conflicts, index maintenance, GC, and WAL flushes.
type Config struct {
	Seed    int64
	Workers int // concurrent workload goroutines (default 4)
	// Accounts is the initially loaded customer count (default 48; small
	// enough that workers collide on rows and exercise first-updater-wins).
	Accounts int
	// OpsPerWorker is each worker's operation count per phase (default 40).
	OpsPerWorker int
	// Phases is the number of workload/quiesce/check rounds (default 3).
	Phases int
	// Serial executes the identical per-worker operation streams on one
	// goroutine in round-robin order: the bit-exact replay mode for
	// debugging a seed that failed concurrently.
	Serial bool
	// BuildThreads is the parallelism of the phase-boundary index build
	// (default max(2, Workers)).
	BuildThreads int
	// Partitions hash-partitions all three tables on custid (<= 1 keeps
	// them unpartitioned). The partition invariant family then verifies
	// routing and per-partition scan-merge consistency at every phase.
	Partitions int
	// DOP fans the audit and conservation balance scans over this many
	// goroutines, one partition stripe at a time, merged in partition
	// order (<= 1 scans serially). Only meaningful with Partitions > 1.
	DOP int
	// Corrupt, when set, is invoked on the database right before the final
	// phase's invariant pass. Tests use it to prove the checkers detect
	// injected damage and report the seed.
	Corrupt func(*engine.DB)
}

// Report summarizes a successful run.
type Report struct {
	Seed         int64
	Workers      int
	Partitions   int    // hash partitions per table (1 = unpartitioned)
	Commits      uint64 // committed transactions (including read-only)
	Aborts       uint64 // rolled-back transactions (deliberate + conflict)
	Conflicts    uint64 // first-updater-wins write-write conflicts hit
	GCRuns       uint64
	Flushes      uint64
	IndexBuilt   bool // the phase-boundary parallel index build ran
	Checks       int  // invariant-family passes executed
	Accounts     int  // accounts ever created (live + tombstoned)
	LastCommitTS uint64
	StateDigest  uint64 // digest of all committed tuples at LastCommitTS
}

// account locates one customer's row in each of the three tables.
type account struct {
	id            int64
	acc, sav, chk storage.RowID
}

// ledgerEntry records the committed balance delta of one transaction. The
// ledger is the oracle for the conservation invariant: at any snapshot S the
// committed balance total must equal the sum of deltas with ts <= S.
type ledgerEntry struct {
	ts    uint64
	delta float64
}

type harness struct {
	cfg Config
	db  *engine.DB

	accT, savT, chkT *storage.Table

	mu       sync.Mutex // guards accounts
	accounts []account
	nextID   atomic.Int64

	// commitMu makes commit-and-ledger-append atomic, and audits take it
	// while opening their snapshot, so the ledger is always exact with
	// respect to any audit's read timestamp.
	commitMu sync.Mutex
	ledgerMu sync.Mutex
	ledger   []ledgerEntry

	commits, aborts, conflicts atomic.Uint64
	checks                     atomic.Int64
	indexBuilt                 bool
	contenders                 float64 // index latch contenders: the worker count
	maint                      *exec.Maintainer
}

// Run executes one full stress run and either returns a Report or the first
// invariant violation, tagged with the seed so it can be replayed.
func Run(cfg Config) (*Report, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Accounts <= 0 {
		cfg.Accounts = 48
	}
	if cfg.OpsPerWorker <= 0 {
		cfg.OpsPerWorker = 40
	}
	if cfg.Phases <= 0 {
		cfg.Phases = 3
	}
	if cfg.BuildThreads <= 0 {
		cfg.BuildThreads = cfg.Workers
		if cfg.BuildThreads < 2 {
			cfg.BuildThreads = 2
		}
	}

	knobs := catalog.DefaultKnobs()
	if cfg.Partitions > 1 {
		knobs.PartitionCount = cfg.Partitions
	}
	if cfg.DOP > 1 {
		knobs.ScanDOP = cfg.DOP
	}
	h := &harness{cfg: cfg, contenders: float64(cfg.Workers)}
	if err := h.setup(knobs); err != nil {
		return nil, h.fail(-1, "setup", err)
	}
	sched := BuildSchedule(cfg.Seed, cfg.Workers, cfg.OpsPerWorker*cfg.Phases)
	for phase := 0; phase < cfg.Phases; phase++ {
		lo := phase * cfg.OpsPerWorker
		if err := h.runPhase(sched, lo, lo+cfg.OpsPerWorker); err != nil {
			return nil, h.fail(phase, "workload", err)
		}
		if phase == 0 {
			if err := h.buildNameIndex(); err != nil {
				return nil, h.fail(phase, "index-build", err)
			}
		}
		if cfg.Corrupt != nil && phase == cfg.Phases-1 {
			cfg.Corrupt(h.db)
		}
		if err := h.checkAll(phase); err != nil {
			return nil, err
		}
	}
	return h.report(), nil
}

// fail tags an error with everything needed to reproduce it.
func (h *harness) fail(phase int, family string, err error) error {
	return fmt.Errorf("check: seed=%d workers=%d phase=%d %s: %w",
		h.cfg.Seed, h.cfg.Workers, phase, family, err)
}

func (h *harness) tables() []*storage.Table {
	return []*storage.Table{h.accT, h.savT, h.chkT}
}

// setup opens the SmallBank schema (the primary-key indexes exist before
// any data, so the workload's insert path maintains them from the first
// row), and loads the initial accounts through the real transactional path
// so the WAL image covers every committed state transition.
func (h *harness) setup(knobs catalog.Knobs) error {
	db, tables, err := workload.SmallBank{}.Schema().Open(knobs, nil, nil)
	if err != nil {
		return err
	}
	h.db, h.maint = db, exec.NewMaintainer(db, 0, nil)
	h.accT, h.savT, h.chkT = tables[0], tables[1], tables[2]
	rng := rand.New(rand.NewSource(h.cfg.Seed ^ 0x5eed))
	for i := 0; i < h.cfg.Accounts; i++ {
		if err := h.opInsert(workload.SmallBank{}.Opening(rng)); err != nil {
			return err
		}
	}
	return nil
}

// runPhase executes each worker's [lo,hi) slice of its operation stream,
// with a goroutine racing maintenance passes (serialize, flush, GC) against
// the workload. Serial mode instead interleaves the same streams
// deterministically on the calling goroutine.
func (h *harness) runPhase(sched *Schedule, lo, hi int) error {
	if h.cfg.Serial {
		return h.runPhaseSerial(sched, lo, hi)
	}
	stop := make(chan struct{})
	var maintErr error
	var maintWG sync.WaitGroup
	maintWG.Add(1)
	go func() {
		defer maintWG.Done()
		for maintErr == nil {
			select {
			case <-stop:
				return
			case <-time.After(100 * time.Microsecond):
				maintErr = h.maint.Pass()
			}
		}
	}()
	errs := make([]error, len(sched.Workers))
	var wg sync.WaitGroup
	for w := range sched.Workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, op := range sched.Workers[w][lo:hi] {
				if err := h.execOp(op); err != nil {
					errs[w] = fmt.Errorf("worker %d op %d: %w", w, lo+i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	maintWG.Wait()
	if maintErr != nil {
		errs = append(errs, fmt.Errorf("maintenance pass: %w", maintErr))
	}
	return errors.Join(errs...)
}

func (h *harness) runPhaseSerial(sched *Schedule, lo, hi int) error {
	for i := lo; i < hi; i++ {
		for w := range sched.Workers {
			if err := h.execOp(sched.Workers[w][i]); err != nil {
				return fmt.Errorf("worker %d op %d: %w", w, i, err)
			}
		}
		if i%8 == 3 {
			if err := h.maint.Pass(); err != nil {
				return fmt.Errorf("maintenance pass after op %d: %w", i, err)
			}
		}
	}
	return nil
}

// buildNameIndex runs the parallel index-build action at a quiesce point
// and immediately validates the freshly built tree.
func (h *harness) buildNameIndex() error {
	if _, _, err := h.db.CreateIndex(nil, h.db.Machine.CPU, "accounts_name", "accounts",
		[]string{"name"}, false, h.cfg.BuildThreads); err != nil {
		return err
	}
	h.indexBuilt = true
	return h.db.Index("accounts_name").CheckInvariants()
}

// --- transaction plumbing -------------------------------------------------

// txnState is one workload transaction plus the committed balance delta it
// contributes to the ledger.
type txnState struct {
	tx    *txn.Txn
	delta float64
}

func (h *harness) begin() *txnState {
	return &txnState{tx: h.db.Txns.Begin(nil)}
}

func (h *harness) commit(st *txnState) error {
	// Yield between installing the transaction's uncommitted versions and
	// stamping them: on few-core machines (GOMAXPROCS=1 in particular)
	// workers otherwise serialize at scheduling points and the
	// first-updater-wins conflict window never spans two workers.
	runtime.Gosched()
	h.commitMu.Lock()
	ts, err := h.db.CommitLogged(st.tx, nil, nil)
	if err == nil && st.delta != 0 {
		h.ledgerMu.Lock()
		h.ledger = append(h.ledger, ledgerEntry{ts: ts, delta: st.delta})
		h.ledgerMu.Unlock()
	}
	h.commitMu.Unlock()
	if err != nil {
		return fmt.Errorf("commit: %w", err)
	}
	h.commits.Add(1)
	return nil
}

func (h *harness) abort(st *txnState) error {
	if err := h.db.Abort(st.tx, nil); err != nil {
		return fmt.Errorf("abort: %w", err)
	}
	h.aborts.Add(1)
	return nil
}

// abortOnConflict rolls back after a failed write. A write-write conflict is
// an expected outcome under first-updater-wins; anything else is a bug and
// propagates (after best-effort rollback to keep the database consistent).
func (h *harness) abortOnConflict(st *txnState, err error) error {
	if errors.Is(err, storage.ErrWriteConflict) {
		h.conflicts.Add(1)
		return h.abort(st)
	}
	_ = h.abort(st)
	return err
}

// --- row helpers ----------------------------------------------------------

// readRow reads a row at the transaction's snapshot; ok=false means the
// row is tombstoned (account deleted) at this snapshot.
func (h *harness) readRow(st *txnState, tbl *storage.Table, row storage.RowID) (storage.Tuple, bool, error) {
	data, err := tbl.Read(nil, row, st.tx.ID, st.tx.ReadTS)
	if errors.Is(err, storage.ErrRowNotVisible) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return data, true, nil
}

// withBal is a balance row's next version: the key column kept, so no
// update changes an index key.
func withBal(old storage.Tuple, bal float64) storage.Tuple {
	return storage.Tuple{old[0], storage.NewFloat(bal)}
}

// pickAccount maps a schedule selector onto the live account registry.
func (h *harness) pickAccount(sel int) account {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.accounts[sel%len(h.accounts)]
}

// --- workload operations --------------------------------------------------

// Every write goes through the engine's one write path (engine/write.go),
// with the worker count as the index latch's contenders.

func (h *harness) execOp(op workload.Op) error {
	switch op.Kind {
	case workload.OpBalance:
		return h.opBalance(op)
	case workload.OpDeposit:
		return h.opDeposit(op)
	case workload.OpTransfer:
		return h.opTransfer(op)
	case workload.OpWriteCheck:
		return h.opWriteCheck(op)
	case workload.OpInsert:
		return h.opInsert(op)
	case workload.OpDelete:
		return h.opDelete(op)
	case workload.OpAudit:
		return h.opAudit()
	}
	return fmt.Errorf("unknown op kind %d", op.Kind)
}

// opBalance reads one customer through the primary-key indexes of all three
// tables inside one snapshot and checks two live invariants: unique indexes
// expose at most one visible row per key, and insert/delete commits are
// atomic across tables (the customer is present in all tables or none).
func (h *harness) opBalance(op workload.Op) error {
	a := h.pickAccount(op.A)
	st := h.begin()
	key := index.EncodeKey(storage.NewInt(a.id))
	lookups := []struct {
		tbl *storage.Table
		idx string
	}{
		{h.accT, "accounts_pk"},
		{h.savT, "savings_pk"},
		{h.chkT, "checking_pk"},
	}
	present := make([]bool, len(lookups))
	for i, l := range lookups {
		visible := 0
		for _, row := range h.db.Index(l.idx).SearchEQ(nil, key, h.contenders) {
			_, ok, err := h.readRow(st, l.tbl, row)
			if err != nil {
				return err
			}
			if ok {
				visible++
			}
		}
		if visible > 1 {
			return fmt.Errorf("balance: custid %d has %d visible rows via unique index %s", a.id, visible, l.idx)
		}
		present[i] = visible == 1
	}
	if present[0] != present[1] || present[0] != present[2] {
		return fmt.Errorf("balance: custid %d commit atomicity violated at ts %d: accounts=%t savings=%t checking=%t",
			a.id, st.tx.ReadTS, present[0], present[1], present[2])
	}
	return h.commit(st)
}

func (h *harness) opDeposit(op workload.Op) error {
	a := h.pickAccount(op.A)
	st := h.begin()
	chk, ok, err := h.readRow(st, h.chkT, a.chk)
	if err != nil {
		return err
	}
	if !ok {
		return h.abort(st)
	}
	if err := h.db.Update(st.tx, nil, h.chkT, a.chk, chk, withBal(chk, chk[1].Float()+op.Amount), h.contenders); err != nil {
		return h.abortOnConflict(st, err)
	}
	if op.Abort {
		return h.abort(st)
	}
	st.delta = op.Amount
	return h.commit(st)
}

func (h *harness) opTransfer(op workload.Op) error {
	a := h.pickAccount(op.A)
	b := h.pickAccount(op.B)
	st := h.begin()
	sav, ok, err := h.readRow(st, h.savT, a.sav)
	if err != nil {
		return err
	}
	if !ok {
		return h.abort(st)
	}
	chk, ok, err := h.readRow(st, h.chkT, b.chk)
	if err != nil {
		return err
	}
	if !ok {
		return h.abort(st)
	}
	if err := h.db.Update(st.tx, nil, h.savT, a.sav, sav, withBal(sav, sav[1].Float()-op.Amount), h.contenders); err != nil {
		return h.abortOnConflict(st, err)
	}
	if err := h.db.Update(st.tx, nil, h.chkT, b.chk, chk, withBal(chk, chk[1].Float()+op.Amount), h.contenders); err != nil {
		return h.abortOnConflict(st, err)
	}
	if op.Abort {
		return h.abort(st)
	}
	return h.commit(st) // delta 0: money moved, none created
}

func (h *harness) opWriteCheck(op workload.Op) error {
	a := h.pickAccount(op.A)
	st := h.begin()
	sav, ok, err := h.readRow(st, h.savT, a.sav)
	if err != nil {
		return err
	}
	if !ok {
		return h.abort(st)
	}
	chk, ok, err := h.readRow(st, h.chkT, a.chk)
	if err != nil {
		return err
	}
	if !ok {
		return h.abort(st)
	}
	amount := op.Amount
	if sav[1].Float()+chk[1].Float() < amount {
		amount++ // overdraft penalty
	}
	if err := h.db.Update(st.tx, nil, h.chkT, a.chk, chk, withBal(chk, chk[1].Float()-amount), h.contenders); err != nil {
		return h.abortOnConflict(st, err)
	}
	if op.Abort {
		return h.abort(st)
	}
	st.delta = -amount
	return h.commit(st)
}

func (h *harness) opInsert(op workload.Op) error {
	id := h.nextID.Add(1) - 1
	rows := workload.NewAccount(id, op.Amount)
	st := h.begin()
	a := account{id: id}
	var errs [3]error
	a.acc, errs[0] = h.db.Insert(st.tx, nil, h.accT, rows[0], h.contenders)
	a.sav, errs[1] = h.db.Insert(st.tx, nil, h.savT, rows[1], h.contenders)
	a.chk, errs[2] = h.db.Insert(st.tx, nil, h.chkT, rows[2], h.contenders)
	if err := errors.Join(errs[:]...); err != nil {
		return h.abortOnConflict(st, err)
	}
	if op.Abort {
		return h.abort(st)
	}
	st.delta = rows[1][1].Float() + rows[2][1].Float()
	if err := h.commit(st); err != nil {
		return err
	}
	h.mu.Lock()
	h.accounts = append(h.accounts, a)
	h.mu.Unlock()
	return nil
}

// opDelete tombstones a customer in all three tables in one transaction.
// Deleted accounts stay in the registry so later operations keep exercising
// tombstone visibility.
func (h *harness) opDelete(op workload.Op) error {
	a := h.pickAccount(op.B)
	st := h.begin()
	accData, ok, err := h.readRow(st, h.accT, a.acc)
	if err != nil {
		return err
	}
	if !ok {
		return h.abort(st) // already deleted at this snapshot
	}
	savData, ok, err := h.readRow(st, h.savT, a.sav)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("delete: custid %d visible in accounts but not savings at ts %d", a.id, st.tx.ReadTS)
	}
	chkData, ok, err := h.readRow(st, h.chkT, a.chk)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("delete: custid %d visible in accounts but not checking at ts %d", a.id, st.tx.ReadTS)
	}
	if err := h.db.Delete(st.tx, nil, h.accT, a.acc, accData, h.contenders); err != nil {
		return h.abortOnConflict(st, err)
	}
	if err := h.db.Delete(st.tx, nil, h.savT, a.sav, savData, h.contenders); err != nil {
		return h.abortOnConflict(st, err)
	}
	if err := h.db.Delete(st.tx, nil, h.chkT, a.chk, chkData, h.contenders); err != nil {
		return h.abortOnConflict(st, err)
	}
	if op.Abort {
		return h.abort(st)
	}
	st.delta = -(savData[1].Float() + chkData[1].Float())
	return h.commit(st)
}

// opAudit checks snapshot isolation while the workload is live: it opens a
// snapshot under the commit mutex (so the ledger is exact for its read
// timestamp), scans all committed balances twice, and requires both
// repeatable reads and conservation against the ledger.
func (h *harness) opAudit() error {
	h.commitMu.Lock()
	tx := h.db.Txns.Begin(nil)
	expected := h.ledgerSum(tx.ReadTS)
	h.commitMu.Unlock()
	st := &txnState{tx: tx}
	sum1 := h.balanceSum(tx.ID, tx.ReadTS)
	sum2 := h.balanceSum(tx.ID, tx.ReadTS)
	if !approxEq(sum1, sum2) {
		return fmt.Errorf("audit: snapshot at ts %d not repeatable: scanned %.2f then %.2f", tx.ReadTS, sum1, sum2)
	}
	if !approxEq(sum1, expected) {
		return fmt.Errorf("audit: conservation violated at ts %d: scanned %.2f, ledger expects %.2f", tx.ReadTS, sum1, expected)
	}
	return h.commit(st)
}

func (h *harness) balanceSum(txnID, readTS uint64) float64 {
	tables := []*storage.Table{h.savT, h.chkT}
	if h.cfg.DOP > 1 {
		return h.balanceSumParallel(tables, txnID, readTS)
	}
	total := 0.0
	for _, tbl := range tables {
		tbl.Scan(nil, txnID, readTS, func(_ storage.RowID, data storage.Tuple) bool {
			total += data[1].Float()
			return true
		})
	}
	return total
}

// balanceSumParallel computes the committed balance total by fanning each
// balance table's per-partition scans, under one hold of its partition
// latch, over DOP goroutines. Each (table, partition) cell accumulates into
// its own sum and the cells are merged in enumeration order, so the total is
// independent of which goroutine scanned which partition.
func (h *harness) balanceSumParallel(tables []*storage.Table, txnID, readTS uint64) float64 {
	var sums []float64 // one per (table, partition), in that order
	for _, tbl := range tables {
		tbl.ScanPartitions(func(counts []int, scan storage.PartitionScan) {
			part := make([]float64, len(counts))
			par.Do(h.cfg.DOP, len(counts), func(p int) {
				scan(nil, p, txnID, readTS, nil, func(rows []storage.ScanRow) bool {
					for _, r := range rows {
						part[p] += r.Data[1].Float()
					}
					return true
				})
			})
			sums = append(sums, part...)
		})
	}
	total := 0.0
	for _, s := range sums {
		total += s
	}
	return total
}

func (h *harness) ledgerSum(upTo uint64) float64 {
	h.ledgerMu.Lock()
	defer h.ledgerMu.Unlock()
	total := 0.0
	for _, e := range h.ledger {
		if e.ts <= upTo {
			total += e.delta
		}
	}
	return total
}

func approxEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*(1+math.Abs(a)+math.Abs(b))
}

// --- reporting ------------------------------------------------------------

func (h *harness) report() *Report {
	h.mu.Lock()
	accounts := len(h.accounts)
	h.mu.Unlock()
	lastTS := h.db.Txns.LastCommitTS()
	passes := h.maint.Stats().Passes // each one flushed the WAL and collected versions
	return &Report{
		Seed:         h.cfg.Seed,
		Workers:      h.cfg.Workers,
		Partitions:   h.accT.PartitionCount(),
		Commits:      h.commits.Load(),
		Aborts:       h.aborts.Load(),
		Conflicts:    h.conflicts.Load(),
		GCRuns:       passes,
		Flushes:      passes,
		IndexBuilt:   h.indexBuilt,
		Checks:       int(h.checks.Load()),
		Accounts:     accounts,
		LastCommitTS: lastTS,
		StateDigest:  workload.CaptureState(h.tables(), lastTS).Digest(),
	}
}
