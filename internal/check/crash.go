package check

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/exec"
	"mb2/internal/fold"
	"mb2/internal/hw"
	"mb2/internal/storage"
	"mb2/internal/wal"
)

// This file implements the crash-at-every-point property harness. A
// deterministic serial workload (SmallBank or TATP style) runs against a
// live engine whose WAL lives on a block device; the resulting durable
// image is then cut at every byte offset — each cut is exactly the image a
// hw.FaultDevice crash at that offset leaves behind — and a fresh instance
// recovers from the cut. The recovered state must equal an independent
// model oracle's fold of every transaction whose commit record lies inside
// the valid prefix: no error at any offset, no lost committed transaction,
// no ghost uncommitted write.

// CrashConfig parameterizes one crash-recovery property run. Zero values
// select defaults sized so an every-byte sweep finishes quickly under
// -race.
type CrashConfig struct {
	Seed int64
	// Workload is "smallbank" (default) or "tatp".
	Workload string
	// Txns is the number of generated transactions (default 40; a handful
	// abort on purpose, so committed count is lower).
	Txns int
	// Stride is the crash-offset step over the durable log image (default
	// 1: every byte). The final full-image offset is always checked.
	Stride int
	// FlushEvery is how many transactions share one serialize+flush cycle
	// (default 3), so crash offsets land inside multi-transaction flushes.
	FlushEvery int
	// CheckpointAfter, when > 0, checkpoints the database once this many
	// transactions have committed; crash offsets then sweep the
	// post-checkpoint log and recovery starts from the checkpoint image.
	CheckpointAfter int
	// Partitions hash-partitions every workload table (<= 1 keeps them
	// unpartitioned). Each recovered instance is partitioned identically
	// and must re-route every replayed row correctly at every crash
	// offset.
	Partitions int
}

// CrashReport summarizes a successful crash sweep.
type CrashReport struct {
	Seed          int64
	Workload      string
	Partitions    int    // hash partitions per table (1 = unpartitioned)
	Txns          int    // transactions executed (committed + aborted)
	Commits       uint64 // committed transactions
	Offsets       int    // crash offsets recovered and verified
	TornOffsets   int    // offsets whose recovery reported a torn tail
	Checkpointed  bool
	LogBytes      int    // durable log size swept
	FinalDigest   uint64 // state digest recovered from the full image
	LastCommitTS  uint64 // commit timestamp recovered from the full image
	FlushFailures uint64 // transient flush retries absorbed (0 on MemDevice)
}

// Effect kinds of one transaction's write set.
const (
	effInsert = iota
	effUpdate
	effDelete
)

// crashEffect is one row write: the unit both the live execution and the
// model oracle consume, so they cannot disagree about intent.
type crashEffect struct {
	kind  int
	table int // index into the workload's table list
	row   storage.RowID
	data  storage.Tuple // nil for deletes
}

// crashTxn is one generated transaction. Aborted transactions execute their
// effects and roll back: their write records reach the log with no commit
// record, which is exactly the ghost-write hazard recovery must discard.
type crashTxn struct {
	effects []crashEffect
	abort   bool
}

// crashWorkload is a deterministic serial transaction stream plus the DDL
// it runs against.
type crashWorkload struct {
	name    string
	tables  []string
	schemas []catalog.Schema
	// pkIndexes names a unique index per table ("" = none), maintained by
	// the live run and rebuilt by recovery.
	pkIndexes []string
	txns      []crashTxn
}

// --- workload generators ----------------------------------------------------

// genSmallBank generates a SmallBank-style stream over accounts, savings,
// and checking: inserts, balance updates, transfers, deletes, and deliberate
// aborts. The generator simulates its own model state so it only updates or
// deletes rows that are live, and predicts every RowID (serial inserts
// allocate sequentially).
func genSmallBank(seed int64, txns int) crashWorkload {
	w := crashWorkload{
		name:   "smallbank",
		tables: []string{"accounts", "savings", "checking"},
		schemas: []catalog.Schema{
			catalog.NewSchema(
				catalog.Column{Name: "custid", Type: catalog.Int64},
				catalog.Column{Name: "name", Type: catalog.Varchar},
			),
			catalog.NewSchema(
				catalog.Column{Name: "custid", Type: catalog.Int64},
				catalog.Column{Name: "bal", Type: catalog.Float64},
			),
			catalog.NewSchema(
				catalog.Column{Name: "custid", Type: catalog.Int64},
				catalog.Column{Name: "bal", Type: catalog.Float64},
			),
		},
		pkIndexes: []string{"accounts_pk", "savings_pk", "checking_pk"},
	}
	type acct struct {
		id             int64
		acc, sav, chk  storage.RowID
		savBal, chkBal float64
		live           bool
	}
	var (
		accts    []acct
		rowCount [3]storage.RowID
		nextID   int64
	)
	rng := rand.New(rand.NewSource(seed ^ 0xc4a54))
	newAcct := func(abort bool) crashTxn {
		id := nextID
		savBal := float64(rng.Intn(100_000)) / 100
		chkBal := float64(rng.Intn(50_000)) / 100
		a := acct{id: id, acc: rowCount[0], sav: rowCount[1], chk: rowCount[2],
			savBal: savBal, chkBal: chkBal, live: true}
		ct := crashTxn{abort: abort, effects: []crashEffect{
			{effInsert, 0, a.acc, storage.Tuple{storage.NewInt(id), storage.NewString(fmt.Sprintf("cust-%06d", id))}},
			{effInsert, 1, a.sav, storage.Tuple{storage.NewInt(id), storage.NewFloat(savBal)}},
			{effInsert, 2, a.chk, storage.Tuple{storage.NewInt(id), storage.NewFloat(chkBal)}},
		}}
		// Row IDs are consumed even when the transaction aborts: the heap
		// slot is allocated, only the version is rolled back.
		rowCount[0]++
		rowCount[1]++
		rowCount[2]++
		nextID++
		if !abort {
			accts = append(accts, a)
		}
		return ct
	}
	pickLive := func() int {
		live := make([]int, 0, len(accts))
		for i := range accts {
			if accts[i].live {
				live = append(live, i)
			}
		}
		if len(live) == 0 {
			return -1
		}
		return live[rng.Intn(len(live))]
	}
	balTuple := func(id int64, bal float64) storage.Tuple {
		return storage.Tuple{storage.NewInt(id), storage.NewFloat(bal)}
	}
	for t := 0; t < txns; t++ {
		if t < 6 {
			w.txns = append(w.txns, newAcct(false))
			continue
		}
		i := pickLive()
		if i < 0 {
			w.txns = append(w.txns, newAcct(false))
			continue
		}
		a := &accts[i]
		amt := float64(rng.Intn(10_000)) / 100
		switch p := rng.Intn(100); {
		case p < 30: // deposit
			w.txns = append(w.txns, crashTxn{effects: []crashEffect{
				{effUpdate, 2, a.chk, balTuple(a.id, a.chkBal+amt)},
			}})
			a.chkBal += amt
		case p < 50: // transfer savings(a) -> checking(b)
			j := pickLive()
			b := &accts[j]
			eff := []crashEffect{{effUpdate, 1, a.sav, balTuple(a.id, a.savBal-amt)}}
			a.savBal -= amt
			eff = append(eff, crashEffect{effUpdate, 2, b.chk, balTuple(b.id, b.chkBal+amt)})
			b.chkBal += amt
			w.txns = append(w.txns, crashTxn{effects: eff})
		case p < 65: // write check
			w.txns = append(w.txns, crashTxn{effects: []crashEffect{
				{effUpdate, 2, a.chk, balTuple(a.id, a.chkBal-amt)},
			}})
			a.chkBal -= amt
		case p < 75: // new customer
			w.txns = append(w.txns, newAcct(false))
		case p < 85: // close the account: delete all three rows
			w.txns = append(w.txns, crashTxn{effects: []crashEffect{
				{effDelete, 0, a.acc, nil},
				{effDelete, 1, a.sav, nil},
				{effDelete, 2, a.chk, nil},
			}})
			a.live = false
		default: // deposit executed and rolled back: ghost writes in the log
			w.txns = append(w.txns, crashTxn{abort: true, effects: []crashEffect{
				{effUpdate, 2, a.chk, balTuple(a.id, a.chkBal+amt)},
			}})
		}
	}
	return w
}

// genTATP generates a TATP-style stream over subscriber and call_forwarding:
// location updates, forwarding-entry churn (insert/delete with varchar
// payloads), and deliberate aborts.
func genTATP(seed int64, txns int) crashWorkload {
	w := crashWorkload{
		name:   "tatp",
		tables: []string{"subscriber", "call_forwarding"},
		schemas: []catalog.Schema{
			catalog.NewSchema(
				catalog.Column{Name: "s_id", Type: catalog.Int64},
				catalog.Column{Name: "bit_1", Type: catalog.Int64},
				catalog.Column{Name: "vlr_location", Type: catalog.Int64},
			),
			catalog.NewSchema(
				catalog.Column{Name: "s_id", Type: catalog.Int64},
				catalog.Column{Name: "numberx", Type: catalog.Varchar},
			),
		},
		pkIndexes: []string{"subscriber_pk", ""},
	}
	type sub struct {
		id       int64
		row      storage.RowID
		bit, vlr int64
	}
	type fwd struct {
		row storage.RowID
		sid int64
	}
	var (
		subs     []sub
		fwds     []fwd
		rowCount [2]storage.RowID
	)
	rng := rand.New(rand.NewSource(seed ^ 0x7a79))
	subTuple := func(s sub) storage.Tuple {
		return storage.Tuple{storage.NewInt(s.id), storage.NewInt(s.bit), storage.NewInt(s.vlr)}
	}
	for t := 0; t < txns; t++ {
		if t < 6 {
			s := sub{id: int64(t), row: rowCount[0], bit: int64(rng.Intn(2)), vlr: rng.Int63n(1 << 30)}
			rowCount[0]++
			subs = append(subs, s)
			w.txns = append(w.txns, crashTxn{effects: []crashEffect{
				{effInsert, 0, s.row, subTuple(s)},
			}})
			continue
		}
		s := &subs[rng.Intn(len(subs))]
		switch p := rng.Intn(100); {
		case p < 50: // UpdateLocation
			s.vlr = rng.Int63n(1 << 30)
			w.txns = append(w.txns, crashTxn{effects: []crashEffect{
				{effUpdate, 0, s.row, subTuple(*s)},
			}})
		case p < 70: // InsertCallForwarding
			f := fwd{row: rowCount[1], sid: s.id}
			rowCount[1]++
			fwds = append(fwds, f)
			w.txns = append(w.txns, crashTxn{effects: []crashEffect{
				{effInsert, 1, f.row, storage.Tuple{storage.NewInt(f.sid),
					storage.NewString(fmt.Sprintf("fwd-%d-%08d", f.sid, rng.Intn(1e8)))}},
			}})
		case p < 85: // DeleteCallForwarding
			if len(fwds) == 0 {
				s.vlr = rng.Int63n(1 << 30)
				w.txns = append(w.txns, crashTxn{effects: []crashEffect{
					{effUpdate, 0, s.row, subTuple(*s)},
				}})
				continue
			}
			i := rng.Intn(len(fwds))
			f := fwds[i]
			fwds = append(fwds[:i], fwds[i+1:]...)
			w.txns = append(w.txns, crashTxn{effects: []crashEffect{
				{effDelete, 1, f.row, nil},
			}})
		default: // aborted location update
			ghost := *s
			ghost.vlr = rng.Int63n(1 << 30)
			w.txns = append(w.txns, crashTxn{abort: true, effects: []crashEffect{
				{effUpdate, 0, s.row, subTuple(ghost)},
			}})
		}
	}
	return w
}

// --- execution ---------------------------------------------------------------

// newCrashDB materializes the workload's DDL on the given devices,
// hash-partitioning every table when the config asks for it.
func newCrashDB(cfg CrashConfig, w crashWorkload, logDev, ckptDev hw.BlockDevice) (*engine.DB, []*storage.Table, error) {
	knobs := catalog.DefaultKnobs()
	if cfg.Partitions > 1 {
		knobs.PartitionCount = cfg.Partitions
	}
	db := engine.OpenOnDevices(knobs, logDev, ckptDev)
	tables := make([]*storage.Table, len(w.tables))
	for i, name := range w.tables {
		t, err := db.CreateTable(name, w.schemas[i])
		if err != nil {
			return nil, nil, err
		}
		tables[i] = t
	}
	for i, name := range w.pkIndexes {
		if name == "" {
			continue
		}
		if _, _, err := db.CreateIndex(nil, db.Machine.CPU, name, w.tables[i],
			[]string{w.schemas[i].Columns[0].Name}, true, 1); err != nil {
			return nil, nil, err
		}
	}
	return db, tables, nil
}

// applyCrashTxn executes one generated transaction through the engine's
// write path: versioned writes, index entries, redo logging, commit-ordered
// commit record (or rollback). An update or delete reads its before-image
// uncharged.
func applyCrashTxn(db *engine.DB, tables []*storage.Table, ct crashTxn) error {
	tx := db.Txns.Begin(nil)
	for _, e := range ct.effects {
		tbl := tables[e.table]
		if e.kind == effInsert {
			row, err := db.Insert(tx, nil, tbl, e.data, 1)
			if err != nil {
				return err
			}
			if row != e.row {
				return fmt.Errorf("insert allocated row %d, generator predicted %d", row, e.row)
			}
			continue
		}
		old, err := tbl.Read(nil, e.row, tx.ID, tx.ReadTS)
		if err != nil {
			return fmt.Errorf("read before-image: %w", err)
		}
		if e.kind == effUpdate {
			err = db.Update(tx, nil, tbl, e.row, old, e.data, 1)
		} else {
			err = db.Delete(tx, nil, tbl, e.row, old, 1)
		}
		if err != nil {
			return fmt.Errorf("write: %w", err)
		}
	}
	if ct.abort {
		return db.Abort(tx, nil)
	}
	_, err := db.CommitLogged(tx, nil, nil)
	return err
}

// runCrashWorkload executes the whole stream on db with a maintenance pass
// every cfg.FlushEvery transactions, committed or aborted, and the optional
// mid-run checkpoint. ship, when set, runs after every flush: a pass with
// nothing to flush still ships, which is how the replicas receive a
// checkpoint and, from the run's second final pass, a cadence-lagged tail.
// A log-device crash ends the run cleanly — the crash is the point. It
// returns how many transactions committed and whether the device crashed.
func runCrashWorkload(cfg CrashConfig, w crashWorkload, db *engine.DB, tables []*storage.Table, ship func() error) (commits uint64, crashed bool, err error) {
	m := exec.NewMaintainer(db, cfg.FlushEvery, ship)
	checkpointed := false
	for _, ct := range w.txns {
		if err := applyCrashTxn(db, tables, ct); err != nil {
			return commits, false, err
		}
		if !ct.abort {
			commits++
		}
		if err = m.Finished(); err != nil {
			break
		}
		if cfg.CheckpointAfter > 0 && !checkpointed && commits >= uint64(cfg.CheckpointAfter) {
			checkpointed = true
			if err = m.Pass(); err == nil {
				if _, err = db.Checkpoint(nil); err == nil {
					err = m.Pass()
				}
			}
			if err != nil {
				break
			}
		}
	}
	for i := 0; i < 2 && err == nil; i++ {
		err = m.Pass()
	}
	if errors.Is(err, hw.ErrDeviceCrashed) {
		return commits, true, nil
	}
	return commits, false, err
}

// --- oracle ------------------------------------------------------------------

// modelAfter folds the first k committed transactions' effects into the
// canonical table/row -> tuple rendering: the independent oracle recovered
// state is compared against. Aborted transactions never contribute.
func modelAfter(w crashWorkload, k uint64) map[string]string {
	state := make(map[string]string)
	committed := uint64(0)
	for _, ct := range w.txns {
		if ct.abort {
			continue
		}
		if committed == k {
			break
		}
		committed++
		for _, e := range ct.effects {
			key := fmt.Sprintf("%s/%d", w.tables[e.table], e.row)
			if e.kind == effDelete {
				delete(state, key)
			} else {
				state[key] = renderTuple(e.data)
			}
		}
	}
	return state
}

func renderTuple(data storage.Tuple) string {
	parts := make([]string, len(data))
	for i, v := range data {
		parts[i] = v.String()
	}
	return strings.Join(parts, ",")
}

// captureState snapshots every visible tuple at readTS, in the same
// rendering the oracle uses.
func captureState(tables []*storage.Table, readTS uint64) map[string]string {
	out := make(map[string]string)
	for _, tbl := range tables {
		tbl.Scan(nil, 0, readTS, func(row storage.RowID, data storage.Tuple) bool {
			out[fmt.Sprintf("%s/%d", tbl.Meta.Name, row)] = renderTuple(data)
			return true
		})
	}
	return out
}

// capturePartitioned snapshots every visible tuple at readTS by merging
// each table's per-partition scan streams in partition order — the same
// rendering captureState produces from the global scan, so the two must
// expose identical states.
func capturePartitioned(tables []*storage.Table, readTS uint64) map[string]string {
	out := make(map[string]string)
	for _, tbl := range tables {
		for p := 0; p < tbl.PartitionCount(); p++ {
			tbl.ScanPartition(nil, p, 0, readTS, func(row storage.RowID, data storage.Tuple) bool {
				out[fmt.Sprintf("%s/%d", tbl.Meta.Name, row)] = renderTuple(data)
				return true
			})
		}
	}
	return out
}

// digestState hashes a captured state in a canonical order; serial-mode
// replays of the same seed must produce the same digest.
func digestState(state map[string]string) uint64 {
	keys := make([]string, 0, len(state))
	for k := range state {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	d := fold.New()
	for _, k := range keys {
		fmt.Fprintf(&d, "%s=%s\n", k, state[k])
	}
	return d.Sum64()
}

func diffStates(got, want map[string]string) error {
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			return fmt.Errorf("committed row %s lost (want %q)", k, w)
		}
		if g != w {
			return fmt.Errorf("row %s = %q, want %q", k, g, w)
		}
	}
	for k, g := range got {
		if _, ok := want[k]; !ok {
			return fmt.Errorf("ghost row %s = %q (not committed)", k, g)
		}
	}
	return nil
}

// --- the sweep ---------------------------------------------------------------

func generate(cfg CrashConfig) (crashWorkload, error) {
	switch cfg.Workload {
	case "", "smallbank":
		return genSmallBank(cfg.Seed, cfg.Txns), nil
	case "tatp":
		return genTATP(cfg.Seed, cfg.Txns), nil
	default:
		return crashWorkload{}, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
}

// RunCrash executes one crash-at-every-point property run: golden serial
// execution, then recovery verification at every crash offset into the
// durable log. Any violation is returned tagged with the seed, workload,
// and offset needed to replay it.
func RunCrash(cfg CrashConfig) (*CrashReport, error) {
	if cfg.Txns <= 0 {
		cfg.Txns = 40
	}
	if cfg.Stride <= 0 {
		cfg.Stride = 1
	}
	if cfg.FlushEvery <= 0 {
		cfg.FlushEvery = 3
	}
	w, err := generate(cfg)
	if err != nil {
		return nil, err
	}
	fail := func(offset int, err error) error {
		return fmt.Errorf("crash: seed=%d workload=%s offset=%d: %w", cfg.Seed, w.name, offset, err)
	}

	golden, goldenTables, err := newCrashDB(cfg, w, nil, nil)
	if err != nil {
		return nil, fail(-1, err)
	}
	commits, _, err := runCrashWorkload(cfg, w, golden, goldenTables, nil)
	if err != nil {
		return nil, fail(-1, err)
	}
	logImage := golden.WAL.Durable()
	ckptImage := golden.CheckpointImage()
	if cfg.CheckpointAfter <= 0 && len(ckptImage) != 0 {
		return nil, fail(-1, fmt.Errorf("unexpected checkpoint image (%d bytes)", len(ckptImage)))
	}

	// The live database must already match the oracle's full fold; if it
	// does not, the bug is in the workload or engine, not recovery.
	liveState := captureState(goldenTables, golden.Txns.LastCommitTS())
	if err := diffStates(liveState, modelAfter(w, commits)); err != nil {
		return nil, fail(-1, fmt.Errorf("live state diverges from oracle: %w", err))
	}
	if err := golden.CheckIndexes(); err != nil {
		return nil, fail(-1, fmt.Errorf("live index: %w", err))
	}

	// Commits already durable via the checkpoint (recovery's replay base).
	ckptCommits := uint64(0)
	if ck, ok, err := wal.LastValidCheckpoint(ckptImage); err != nil {
		return nil, fail(-1, err)
	} else if ok {
		ckptCommits = ck.SnapshotTS
	}

	// The golden run's partitioning must itself be sound before any
	// recovered instance is compared against it.
	for _, tbl := range goldenTables {
		if err := tbl.CheckPartitionInvariants(); err != nil {
			return nil, fail(-1, err)
		}
	}

	report := &CrashReport{
		Seed: cfg.Seed, Workload: w.name, Txns: len(w.txns), Commits: commits,
		Partitions:   goldenTables[0].PartitionCount(),
		Checkpointed: cfg.CheckpointAfter > 0, LogBytes: len(logImage),
	}
	retries, _ := golden.WAL.FaultStats()
	report.FlushFailures = retries

	verify := func(offset int) error {
		prefix := logImage[:offset]
		// The committed prefix the oracle expects: checkpointed commits
		// plus every commit record inside the valid region of the cut.
		tailK := uint64(0)
		if _, body, torn, err := wal.ParseSegment(prefix); err != nil {
			return err
		} else if !torn {
			records, _, _ := wal.DeserializePrefix(body)
			tailK = wal.NumCommitted(records)
		}
		k := ckptCommits + tailK

		fresh, freshTables, err := newCrashDB(cfg, w, nil, nil)
		if err != nil {
			return err
		}
		rth := hw.NewThread(fresh.Machine.CPU)
		st, err := fresh.RecoverImages(rth, ckptImage, prefix)
		if err != nil {
			return fmt.Errorf("recovery must tolerate any crash offset: %w", err)
		}
		if st.TornTail {
			report.TornOffsets++
		}
		if got := fresh.Txns.LastCommitTS(); got != k {
			return fmt.Errorf("recovered commit ts %d, oracle expects %d committed", got, k)
		}
		if err := diffStates(captureState(freshTables, k), modelAfter(w, k)); err != nil {
			return err
		}
		// Recovery must re-route every replayed row: the directory
		// invariants hold at every crash offset, and the merged partition
		// stripes expose exactly the oracle's committed state.
		for _, tbl := range freshTables {
			if err := tbl.CheckPartitionInvariants(); err != nil {
				return err
			}
		}
		if err := diffStates(capturePartitioned(freshTables, k), modelAfter(w, k)); err != nil {
			return fmt.Errorf("partition-merged state: %w", err)
		}
		// Index rebuild agreement: every index holds exactly the visible
		// rows of its table.
		if err := fresh.CheckIndexes(); err != nil {
			return fmt.Errorf("rebuilt index: %w", err)
		}
		if offset == len(logImage) {
			report.FinalDigest = digestState(captureState(freshTables, k))
			report.LastCommitTS = k
			if k != commits {
				return fmt.Errorf("full image recovered %d commits, golden run committed %d", k, commits)
			}
		}
		report.Offsets++
		return nil
	}

	for offset := 0; offset < len(logImage); offset += cfg.Stride {
		if err := verify(offset); err != nil {
			return nil, fail(offset, err)
		}
	}
	if err := verify(len(logImage)); err != nil {
		return nil, fail(len(logImage), err)
	}
	return report, nil
}
