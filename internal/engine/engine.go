// Package engine assembles the DBMS: catalog, storage, indexes,
// transactions, WAL, and garbage collection behind one handle. It also
// implements the self-driving index-build action (a contending OU) and the
// table statistics the optimizer draws cardinality estimates from: row
// counts and exact distinct counts (DistinctCount).
//
// Checkpoint and recovery are the bulk durable path. A checkpoint encodes
// every visible row straight from the table scans into one image buffer
// sized from the row counts (wal.CheckpointEncoder); recovery and a
// replica's reseed decode it through wal.LastValidCheckpoint. How buffers
// are sized charges nothing: the simulated hw charges follow the rows
// scanned and the bytes written.
package engine

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"mb2/internal/catalog"
	"mb2/internal/fold"
	"mb2/internal/gc"
	"mb2/internal/hw"
	"mb2/internal/index"
	"mb2/internal/metrics"
	"mb2/internal/ou"
	"mb2/internal/storage"
	"mb2/internal/txn"
	"mb2/internal/wal"
)

// DB is one database instance.
type DB struct {
	Catalog *catalog.Catalog
	Txns    *txn.Manager
	WAL     *wal.Manager
	GC      *gc.Collector
	Machine hw.Machine

	mu      sync.RWMutex
	knobs   catalog.Knobs
	tables  map[string]*storage.Table
	indexes map[string]*index.BTree

	// commitMu orders commit records in the WAL: CommitLogged holds it
	// across timestamp assignment and the commit-record enqueue, so the
	// log's commit order always matches commit-timestamp order (the
	// property commit-ordered replay depends on).
	commitMu sync.Mutex

	statMu sync.Mutex
	stats  map[string]float64 // distinct-count cache

	// configVersion counts configuration changes that can invalidate
	// model-prediction caches: knob updates and index create/rename/drop.
	// Readers snapshot it with ConfigVersion and drop cached predictions
	// when it moves (the online loop's cache-invalidation signal).
	configVersion atomic.Uint64

	// ckptDev holds the last checkpoint image (see Checkpoint); ckptMu
	// serializes checkpoint attempts against each other.
	ckptDev hw.BlockDevice
	ckptMu  sync.Mutex
}

// Open creates an empty database with the given knob configuration on
// fault-free in-memory devices.
func Open(knobs catalog.Knobs) *DB {
	return OpenOnDevices(knobs, nil, nil)
}

// OpenOnDevices creates an empty database whose WAL and checkpoint images
// live on the given block devices (nil means a fresh fault-free MemDevice).
// Fault-injection harnesses pass hw.FaultDevice instances here to crash the
// durability path at chosen byte offsets.
func OpenOnDevices(knobs catalog.Knobs, logDev, ckptDev hw.BlockDevice) *DB {
	mgr := txn.NewManager()
	if ckptDev == nil {
		ckptDev = hw.NewMemDevice()
	}
	return &DB{
		Catalog: catalog.New(),
		Txns:    mgr,
		WAL:     wal.NewManagerOn(knobs.LogBufferBytes, logDev),
		GC:      gc.NewCollector(mgr),
		Machine: hw.DefaultMachine(),
		knobs:   knobs,
		tables:  make(map[string]*storage.Table),
		indexes: make(map[string]*index.BTree),
		stats:   make(map[string]float64),
		ckptDev: ckptDev,
	}
}

// Knobs returns the current configuration.
func (db *DB) Knobs() catalog.Knobs {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.knobs
}

// SetKnobs applies a new configuration (a self-driving knob action). A
// PartitionCount change re-routes every table's partition directory to the
// new count (uncharged; use Repartition to charge the rebuild to a thread).
func (db *DB) SetKnobs(k catalog.Knobs) {
	db.mu.Lock()
	old := db.knobs.PartitionCount
	db.knobs = k
	db.mu.Unlock()
	db.configVersion.Add(1)
	if normalizeParts(k.PartitionCount) != normalizeParts(old) {
		db.Repartition(nil, k.PartitionCount)
	}
}

func normalizeParts(p int) int {
	if p < 1 {
		return 1
	}
	return p
}

// Repartition re-routes every table into parts hash partitions, in table
// registration-independent (sorted catalog) order, charging the directory
// rebuilds to th when one is provided. It returns the total number of rows
// whose partition assignment changed and advances the configuration
// version, invalidating prediction caches.
func (db *DB) Repartition(th *hw.Thread, parts int) int {
	moved := 0
	for _, name := range db.Catalog.Tables() {
		if t := db.Table(name); t != nil {
			moved += t.Repartition(th, parts)
		}
	}
	db.mu.Lock()
	db.knobs.PartitionCount = normalizeParts(parts)
	db.mu.Unlock()
	db.configVersion.Add(1)
	return moved
}

// ConfigVersion returns a counter that advances on every knob change and
// index create/rename/drop. Prediction caches key their validity to it:
// a cache filled at version V is stale once ConfigVersion() != V.
func (db *DB) ConfigVersion() uint64 { return db.configVersion.Load() }

// CreateTable registers and materializes a table.
func (db *DB) CreateTable(name string, schema catalog.Schema) (*storage.Table, error) {
	meta, err := db.Catalog.CreateTable(name, schema)
	if err != nil {
		return nil, err
	}
	t := storage.NewTable(meta)
	// Tables hash-partition on their leading column (the primary
	// identifier in every bundled schema) at the configured count.
	t.SetPartitioning([]int{0}, db.Knobs().PartitionCount)
	db.mu.Lock()
	db.tables[name] = t
	db.mu.Unlock()
	db.GC.Register(t)
	return t, nil
}

// Table returns a table by name, or nil.
func (db *DB) Table(name string) *storage.Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables[name]
}

// Index returns an index by name, or nil.
func (db *DB) Index(name string) *index.BTree {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.indexes[name]
}

// CommitLogged commits t and enqueues its commit record, atomically with
// respect to other logged commits. Write records may be enqueued at any
// point before this call (they are grouped per transaction at replay); the
// commit record must go through here, otherwise two racing commits can
// publish commit records in the opposite order of their commit timestamps
// and crash recovery would rebuild the older write on top of the newer one
// — a hazard the concurrency harness (internal/check) checks for. After the
// ordered section it calls committed (if set; exec closes its TXN_COMMIT
// bracket there), then drops the index entries of the keys t's writes
// replaced (write.go), charged to th.
func (db *DB) CommitLogged(t *txn.Txn, th *hw.Thread, committed func()) (uint64, error) {
	db.commitMu.Lock()
	ts, err := t.Commit(th)
	if err == nil {
		err = db.WAL.Enqueue(th, wal.Record{Type: wal.RecordCommit, TxnID: t.ID})
	}
	db.commitMu.Unlock()
	if committed != nil {
		committed()
	}
	if ts == 0 {
		return 0, err // not committed
	}
	db.unindex(t, th, true)
	if err != nil {
		// The in-memory commit already happened; an unloggable commit
		// record means the transaction would be lost by recovery, which the
		// caller must know. (Commit records are tiny, so in practice only a
		// programming error lands here.)
		return ts, fmt.Errorf("engine: commit record rejected: %w", err)
	}
	return ts, nil
}

// BulkLoad appends pre-committed rows (timestamp 0) and maintains any
// existing indexes. It is the loader path; no transactions, no logging.
func (db *DB) BulkLoad(name string, rows []storage.Tuple) error {
	t := db.Table(name)
	if t == nil {
		return fmt.Errorf("engine: table %q does not exist", name)
	}
	idxs := db.Catalog.TableIndexes(t.Meta.ID)
	var key []byte // Insert copies its key
	for _, data := range rows {
		row := t.AppendCommitted(data, 0)
		for _, im := range idxs {
			if bt := db.Index(im.Name); bt != nil {
				key = index.AppendKeyFromTuple(key[:0], data, im.KeyCols)
				bt.Insert(nil, key, row, 1)
			}
		}
	}
	db.invalidateStats(name)
	return nil
}

// CreateIndex registers an index and bulk-builds it with the given number
// of threads over a committed snapshot. The build's critical-path profile —
// the per-thread invocation with the largest elapsed time, which is what
// determines the action's duration (footnote 1) — is emitted as one
// INDEX_BUILD OU record, with the thread-count feature set to the number of
// threads that actually received key ranges (duplicate keys never split
// across shards, so effective parallelism is capped by key cardinality).
func (db *DB) CreateIndex(col *metrics.Collector, cpu hw.CPU, name, table string, keyCols []string, unique bool, threads int) (*index.BTree, index.BuildResult, error) {
	meta, err := db.Catalog.CreateIndex(name, table, keyCols, unique)
	if err != nil {
		return nil, index.BuildResult{}, err
	}
	t := db.Table(table)
	snapshot := db.Txns.LastCommitTS()

	// Every key is encoded into one shared buffer; the build copies them
	// into its leaves, so the buffer goes with entries.
	entries := make([]index.Entry, 0, t.NumRows())
	keys := make([]byte, 0, 8*len(meta.KeyCols)*t.NumRows())
	t.Scan(nil, 0, snapshot, func(row storage.RowID, data storage.Tuple) bool {
		from := len(keys)
		keys = index.AppendKeyFromTuple(keys, data, meta.KeyCols)
		entries = append(entries, index.Entry{Key: keys[from:], Row: row})
		return true
	})
	// A buffer that outgrew its estimate moved: point every key at the
	// final one.
	off := 0
	for i := range entries {
		n := len(entries[i].Key)
		entries[i].Key = keys[off : off+n : off+n]
		off += n
	}

	bt, res := index.BulkBuild(meta, cpu, threads, entries)

	// Distinct keys for the OU features.
	card := float64(bt.NumKeys())
	keyBytes := 0.0
	if len(entries) > 0 {
		keyBytes = float64(len(entries[0].Key))
	}
	effective := 0
	var slowest hw.Metrics
	for _, m := range res.PerThread {
		if m.ElapsedUS > 0 {
			effective++
		}
		if m.ElapsedUS > slowest.ElapsedUS {
			slowest = m
		}
	}
	if effective < 1 {
		effective = 1
	}
	feats := ou.IndexBuildFeatures(float64(len(entries)), float64(len(keyCols)), keyBytes, card, float64(effective))
	if col != nil && len(entries) > 0 {
		col.Emit(ou.IndexBuild, feats, slowest)
	}

	db.mu.Lock()
	db.indexes[name] = bt
	db.mu.Unlock()
	db.configVersion.Add(1)
	return bt, res, nil
}

// RenameIndex renames a materialized index: how a build made under a
// private name is published once construction completes.
func (db *DB) RenameIndex(old, new string) error {
	if err := db.Catalog.RenameIndex(old, new); err != nil {
		return err
	}
	db.mu.Lock()
	if bt, ok := db.indexes[old]; ok {
		delete(db.indexes, old)
		db.indexes[new] = bt
	}
	db.mu.Unlock()
	db.configVersion.Add(1)
	return nil
}

// DropIndex removes an index and its materialization.
func (db *DB) DropIndex(name string) error {
	if err := db.Catalog.DropIndex(name); err != nil {
		return err
	}
	db.mu.Lock()
	delete(db.indexes, name)
	db.mu.Unlock()
	db.configVersion.Add(1)
	return nil
}

// RecoveryStats describes what one recovery pass rebuilt.
type RecoveryStats struct {
	// Applied is the number of redo records applied from the log tail.
	Applied int
	// CheckpointRows is the number of rows restored from the checkpoint.
	CheckpointRows int
	// Committed is the number of committed transactions replayed from the
	// log tail.
	Committed uint64
	// TornTail reports whether the log image ended in a torn or corrupt
	// frame (which recovery tolerates by stopping at the last valid one).
	TornTail bool
	// StaleLog reports that the log segment predates the checkpoint epoch
	// (a crash between checkpoint write and log truncation) and was
	// therefore skipped: every record in it is covered by the checkpoint.
	StaleLog bool
}

// RecoverImages rebuilds committed state from the durable checkpoint and
// log images — what Checkpoint and the WAL device held at the crash. The
// checkpoint image (if it is a valid one) restores its snapshot; the log tail
// is replayed on top when its segment epoch matches the checkpoint's,
// stopping cleanly at the first torn or corrupt frame so a crash mid-flush
// loses only the unflushed suffix, never the committed prefix. The tail is
// applied by one wal.Redo, so writes of transactions without a durable
// commit record are discarded. The schema (DDL) must already exist — as in
// most systems, catalog recovery is a separate concern. Reading the images,
// the redo, and rebuilding indexes are all charged to th when one is
// provided; installing the checkpoint snapshot is not.
func (db *DB) RecoverImages(th *hw.Thread, ckptImage, logImage []byte) (RecoveryStats, error) {
	var st RecoveryStats
	if th != nil {
		if n := len(ckptImage) + len(logImage); n > 0 {
			th.ReadBlocks(float64((n + hw.BlockBytes - 1) / hw.BlockBytes))
			th.SeqRead(float64(n)/64, 64)
		}
	}
	ck, haveCk, err := wal.LastValidCheckpoint(ckptImage)
	if err != nil {
		return st, err
	}
	epoch, body, torn, err := wal.ParseSegment(logImage)
	if err != nil {
		return st, err
	}
	records, consumed, _ := wal.DeserializePrefix(body)
	st.TornTail = torn || consumed != len(body)

	db.mu.RLock()
	tables := make(map[int32]*storage.Table, len(db.tables))
	for _, t := range db.tables {
		tables[int32(t.Meta.ID)] = t
	}
	db.mu.RUnlock()

	base := uint64(0)
	if haveCk {
		for _, r := range ck.Records {
			t, ok := tables[r.TableID]
			if !ok {
				return st, fmt.Errorf("engine: checkpoint references unknown table %d", r.TableID)
			}
			t.ReplayWrite(storage.RowID(r.Row), r.Payload, ck.SnapshotTS)
			st.CheckpointRows++
		}
		base = ck.SnapshotTS
		switch {
		case torn || epoch == ck.Epoch:
			// A torn segment header means the post-checkpoint log never
			// became durable: nothing to replay. A matching epoch means
			// the log is the checkpoint's tail.
		case epoch < ck.Epoch:
			// Crash between checkpoint write and log truncation: the
			// checkpoint covers the whole old-epoch log.
			records = nil
			st.StaleLog = true
		default:
			return st, fmt.Errorf("engine: log epoch %d is newer than checkpoint epoch %d", epoch, ck.Epoch)
		}
	}
	var redo wal.Redo
	st.Applied, st.Committed, err = redo.Apply(th, records, tables, base)
	if err != nil {
		return st, err
	}
	// Redo stamps one timestamp per committed transaction, in commit order,
	// on top of the checkpoint snapshot timestamp; make them all visible to
	// new snapshots.
	db.Txns.AdvanceTo(base + st.Committed)
	// Rebuild indexes over the recovered tables, charging the build to the
	// recovering thread like the log reads above.
	db.RebuildIndexes(th)
	return st, nil
}

// RebuildIndexes rebuilds every catalogued index from the tables' current
// committed state, charging the scans and inserts to th when one is
// provided. Recovery calls it after replaying the log tail; replica
// promotion calls it after applying the shipped backlog — both are
// rebuilding secondary structures the log does not carry. It returns how
// many indexes were rebuilt and how many row entries they absorbed.
func (db *DB) RebuildIndexes(th *hw.Thread) (indexes, rows int) {
	snapshot := db.Txns.LastCommitTS()
	for _, name := range db.Catalog.Tables() {
		t := db.Table(name)
		if t == nil {
			continue
		}
		for _, im := range db.Catalog.TableIndexes(t.Meta.ID) {
			bt := index.NewBTree(im)
			var key []byte // Insert copies its key
			t.Scan(th, 0, snapshot, func(row storage.RowID, data storage.Tuple) bool {
				key = index.AppendKeyFromTuple(key[:0], data, im.KeyCols)
				bt.Insert(th, key, row, 1)
				rows++
				return true
			})
			db.mu.Lock()
			db.indexes[im.Name] = bt
			db.mu.Unlock()
			indexes++
		}
		db.invalidateStats(name)
	}
	return indexes, rows
}

// RowCount returns the table's row count (0 for unknown tables).
func (db *DB) RowCount(name string) float64 {
	t := db.Table(name)
	if t == nil {
		return 0
	}
	return float64(t.NumRows())
}

// DistinctCount returns the number of distinct values of the column set
// over the rows committed at the last commit timestamp — exactly, not a
// sketch's estimate: two rows count once when their index keys
// (index.AppendKeyFromTuple) are equal byte for byte, and the key encoding
// is injective. Results are cached until the next bulk load or index
// rebuild. This is the statistic behind the optimizer's cardinality
// estimates.
func (db *DB) DistinctCount(name string, cols []int) float64 {
	key := fmt.Sprintf("%s/%v", name, cols)
	db.statMu.Lock()
	if v, ok := db.stats[key]; ok {
		db.statMu.Unlock()
		return v
	}
	db.statMu.Unlock()

	t := db.Table(name)
	if t == nil {
		return 0
	}
	v := float64(distinctKeys(t, cols, db.Txns.LastCommitTS()))
	db.statMu.Lock()
	db.stats[key] = v
	db.statMu.Unlock()
	return v
}

// keyRef is one row's key in distinctKeys' buffer: the key's fold hash and
// the span of its bytes (a table's keys stay far below the 4 GiB the
// offsets address).
type keyRef struct {
	hash     uint64
	off, end uint32
}

// distinctKeys counts the distinct keys over cols of the rows visible at
// snapshot. Every key is encoded into one buffer, and the rows' (hash, key)
// pairs are sorted — by hash, then by key bytes among equal hashes — so
// equal keys lie next to each other and each run of them counts once.
func distinctKeys(t *storage.Table, cols []int, snapshot uint64) int {
	rows := t.NumRows()
	refs := make([]keyRef, 0, rows)
	keys := make([]byte, 0, 8*len(cols)*rows)
	t.Scan(nil, 0, snapshot, func(_ storage.RowID, data storage.Tuple) bool {
		off := len(keys)
		keys = index.AppendKeyFromTuple(keys, data, cols)
		refs = append(refs, keyRef{hash: fold.New().Bytes(keys[off:]).Sum64(), off: uint32(off), end: uint32(len(keys))})
		return true
	})
	return countRuns(refs, keys)
}

// countRuns sorts refs by (hash, key bytes) and returns how many distinct
// keys they name: a hash collision costs a byte comparison, never a wrong
// count. The hashes are radix-sorted, a byte a pass; only a run of equal
// hashes is sorted by its keys.
func countRuns(refs []keyRef, keys []byte) int {
	var start [8][256]int // start[d][b]: where digit d's bucket b begins
	for _, r := range refs {
		for d := range start {
			start[d][byte(r.hash>>(8*d))]++
		}
	}
	for d := range start {
		at := 0
		for b, c := range start[d] {
			start[d][b], at = at, at+c
		}
	}
	tmp := make([]keyRef, len(refs))
	for d := range start {
		for _, r := range refs {
			b := byte(r.hash >> (8 * d))
			tmp[start[d][b]] = r
			start[d][b]++
		}
		refs, tmp = tmp, refs
	}
	key := func(r keyRef) []byte { return keys[r.off:r.end] }
	n := 0
	for lo := 0; lo < len(refs); {
		hi := lo + 1
		for hi < len(refs) && refs[hi].hash == refs[lo].hash {
			hi++
		}
		run := refs[lo:hi]
		if len(run) > 1 {
			slices.SortFunc(run, func(a, b keyRef) int { return bytes.Compare(key(a), key(b)) })
		}
		for i, r := range run {
			if i == 0 || !bytes.Equal(key(r), key(run[i-1])) {
				n++
			}
		}
		lo = hi
	}
	return n
}

func (db *DB) invalidateStats(table string) {
	db.statMu.Lock()
	defer db.statMu.Unlock()
	prefix := table + "/"
	for k := range db.stats {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			delete(db.stats, k)
		}
	}
}
