package exec

import (
	"bytes"
	"fmt"

	"mb2/internal/exec/vec"
	"mb2/internal/hw"
	"mb2/internal/index"
	"mb2/internal/ou"
	"mb2/internal/plan"
	"mb2/internal/storage"
)

// Fragments and drivers.
//
// Each plan fragment the execution modes treat differently is written once.
// A scan chain is a plan.ScanPipeline: one source (seqSource, idxSource, or
// the partition exchange of parallel.go) pushing rows through the chain's
// stages into a sink. The sink is a Batch, or a breaker that consumes the
// chain through feed (relational.go): the hash-join probe, the aggregation
// build, the sort build. A hash join is build → fed probe → two OU brackets
// (hashJoin below; partition-wise over worker-local tables in parallel.go).
// The execution mode never selects a different body; it selects, in
// plan.ChooseDriver and nowhere else, the plan.Driver that runs the fragment:
//
//   - Materialize: one operator at a time, every output a Batch, every
//     charge made where the work happens. Interpreted mode, and the
//     reference the other drivers are tested against.
//   - RowPass: one tuple at a time through the whole fragment, breaker
//     included, no intermediate Batch. Compiled mode.
//   - VecPass: one column batch at a time through selection-vector kernels
//     (vectorized.go). Vectorized mode, sequential-scan sources only.
//   - Exchange: Materialize, with the source fanned out over partition
//     worker chains. Every mode, whenever the source table is partitioned.
//
// The modeled-cost contract is strict: RowPass emits exactly the OU records
// — same kinds, same order, same feature vectors — that Materialize emits
// for the same plan, so models trained on either stay valid for both. The
// streaming drivers do their real work in one pass and bill each stage
// afterwards, bracket by bracket, from the counts and width samples the
// pass collected, through the same emitters Materialize calls as it goes.
// A breaker on feed bills afterwards too, on every driver alike: a per-row
// charge that depends on the row is replayed call for call, one that is the
// same for every row is billed once over the total (the sort, the hash
// join). Features and labels therefore agree bit for bit throughout. VecPass
// bills its own VEC_* kinds, so its stream is not record-equivalent, but
// every driver returns bit-identical rows (equivalence_test.go,
// vec_equivalence_test.go).

// chainStage is one per-tuple step of a scan chain, plus what a streaming
// driver records during its pass to bill the step afterwards. Exactly one of
// pred, cols and exprs is set. cols is the source's own column projection: a
// view change billed inside the source bracket, never an OU of its own. A
// pred or exprs stage bills one bracket.
type chainStage struct {
	pred  plan.Expr
	cols  []int
	exprs []plan.Expr

	inRows int    // rows entering the stage
	widths *[]int // RowPass: the width of every entering row (pooled)
	chunks int    // VecPass: chunks entering the stage, and the summed
	wSum   int    // width of one sampled live lane per chunk
}

// chainStages lists a chain's stages in application order: the source's own
// filter, its column projection, then the wrapper stages bottom-up. The list
// lives in the Ctx's scratch slice: a chain's source is a leaf, so no second
// chain starts on the same Ctx before this one has finished.
func (c *Ctx) chainStages(p *plan.ScanPipeline) []chainStage {
	var filter plan.Expr
	var cols []int
	switch s := p.Source.(type) {
	case *plan.SeqScanNode:
		filter, cols = s.Filter, s.Project
	case *plan.IdxScanNode:
		filter, cols = s.Filter, s.Project
	}
	st := c.stages[:0]
	if filter != nil {
		st = append(st, chainStage{pred: filter})
	}
	if cols != nil {
		st = append(st, chainStage{cols: cols})
	}
	for _, w := range p.Stages {
		st = append(st, chainStage{pred: w.Pred, exprs: w.Exprs})
	}
	c.stages = st
	return st
}

func (st *chainStage) opsPerRow() float64 {
	if st.pred != nil {
		return st.pred.Ops()
	}
	ops := 0.0
	for _, e := range st.exprs {
		ops += e.Ops()
	}
	return ops
}

// step applies the stage to one tuple and reports whether the tuple
// survives; a projected tuple is carved from a.
func (st *chainStage) step(t storage.Tuple, a *valueArena) (storage.Tuple, bool) {
	switch {
	case st.pred != nil:
		return t, plan.Truthy(st.pred.Eval(t))
	case st.cols != nil:
		return a.projectCols(t, st.cols), true
	}
	out := a.alloc(len(st.exprs))
	for j, e := range st.exprs {
		out[j] = e.Eval(t)
	}
	return out, true
}

// emitArithmetic bills one filter or projection stage over nrows tuples of
// the given average width as an ARITHMETIC OU.
func emitArithmetic(ctx *Ctx, nrows, width, opsPerRow float64) {
	start := ctx.Tracker.Start()
	ops := nrows * opsPerRow
	ctx.Thread().SeqRead(nrows, width)
	ctx.compute(ops * 2)
	ctx.Tracker.Stop(ou.Arithmetic, ou.ArithmeticFeatures(ops, ctx.compiled()), start)
}

// rowSink consumes a source's rows in scan order. *Batch collects them;
// *rowRun pushes them through a chain's stages.
type rowSink interface {
	// expect is called once, before the first push, with the most rows the
	// source can deliver.
	expect(n int)
	push(rid storage.RowID, t storage.Tuple)
}

// runSource streams a chain's source into out.
func runSource(ctx *Ctx, src plan.Node, out rowSink) error {
	switch n := src.(type) {
	case *plan.SeqScanNode:
		return seqSource(ctx, n, out)
	case *plan.IdxScanNode:
		return idxSource(ctx, n, out)
	}
	return fmt.Errorf("exec: unsupported pipeline source %T", src)
}

// seqSource streams every visible row of the table into out inside the
// SEQ_SCAN bracket, through a pooled scan-row buffer. Each chunk is a
// cancellation point: whatever consumes the rows may be a breaker fused into
// the chain, which has no operator boundary of its own.
func seqSource(ctx *Ctx, n *plan.SeqScanNode, out rowSink) error {
	tbl := ctx.DB.Table(n.Table)
	if tbl == nil {
		return fmt.Errorf("exec: table %q does not exist", n.Table)
	}
	id, ts := ctx.snapshot()

	start := ctx.Tracker.Start()
	out.expect(tbl.NumRows())
	buf := getScanBuf()
	rows := 0
	var err error
	tbl.ScanBatch(ctx.Thread(), id, ts, *buf, func(chunk []storage.ScanRow) bool {
		if err = ctx.interrupted(); err != nil {
			return false
		}
		rows += len(chunk)
		for i := range chunk {
			out.push(chunk[i].Row, chunk[i].Data)
		}
		return true
	})
	putScanBuf(buf)
	if err != nil {
		return err // an aborted pass bills nothing
	}
	scanned := float64(rows)
	ctx.compute(scanned * 6)
	width := float64(tbl.Meta.Schema.TupleBytes())
	cols := float64(tbl.Meta.Schema.NumColumns())
	if n.Filter == nil && n.Project != nil {
		ctx.compute(scanned * float64(len(n.Project)) * 2)
	}
	feats := ou.ExecFeatures(scanned, cols, width, 0, 0, 1, ctx.compiled())
	ctx.Tracker.Stop(ou.SeqScan, feats, start)
	return nil
}

// idxSource streams the index's matches into out inside the IDX_SCAN
// bracket. Postings collect into a pooled buffer first (point lookups go
// through the copy-free SearchEQFunc), so version reads never nest inside
// the tree's read lock and out learns the match count before the first row.
func idxSource(ctx *Ctx, n *plan.IdxScanNode, out rowSink) error {
	tbl := ctx.DB.Table(n.Table)
	idx := ctx.DB.Index(n.Index)
	if tbl == nil || idx == nil {
		return fmt.Errorf("exec: missing table %q or index %q", n.Table, n.Index)
	}
	id, ts := ctx.snapshot()
	loops := n.Loops
	if loops < 1 {
		loops = 1
	}

	start := ctx.Tracker.Start()
	buf := getPostingBuf()
	ps := *buf
	if n.Eq != nil {
		key := index.EncodeKey(n.Eq...)
		idx.SearchEQFunc(ctx.Thread(), key, loops, func(r storage.RowID) bool {
			ps = append(ps, index.Entry{Key: key, Row: r})
			return true
		})
	} else {
		// An open end encodes to a nil key.
		idx.SearchRange(ctx.Thread(), index.EncodeKey(n.Lo...), index.EncodeKey(n.Hi...), func(k index.Key, r storage.RowID) bool {
			ps = append(ps, index.Entry{Key: k, Row: r})
			return true
		})
	}
	out.expect(len(ps))
	rows := ctx.readPostings(tbl, idx.Meta.KeyCols, ps, id, ts, out.push)
	*buf = ps
	putPostingBuf(buf)

	matched := float64(rows)
	ctx.compute(matched * 8)
	width := float64(tbl.Meta.Schema.TupleBytes())
	cols := float64(tbl.Meta.Schema.NumColumns())
	if n.Filter == nil && n.Project != nil {
		ctx.compute(matched * float64(len(n.Project)) * 2)
	}
	// The cardinality feature carries the index's key population: descent
	// depth and cache behavior depend on the structure's size, not just on
	// how many rows match.
	feats := ou.ExecFeatures(matched, cols, width, float64(idx.NumRows()), 0, loops, ctx.compiled())
	ctx.Tracker.Stop(ou.IdxScan, feats, start)
	return nil
}

// readPostings pushes, once, each row a posting names whose version visible
// at (id, ts) carries the posting's key, and returns how many it pushed. An
// index keeps a key while any snapshot may see it (engine/write.go), so a
// posting can name a row that has left the key here, and a row whose key
// changed back to one it held has that posting twice. Postings come grouped
// by key.
func (c *Ctx) readPostings(tbl *storage.Table, cols []int, ps []index.Entry, id, ts uint64, push func(storage.RowID, storage.Tuple)) int {
	var scratch [64]byte // compared, never retained
	pushed := 0
	for len(ps) > 0 {
		n := 1 // postings under ps[0].Key: only several can repeat a row
		for n < len(ps) && ps[n].Key.Equal(ps[0].Key) {
			n++
		}
		if n > 1 && c.seen == nil {
			c.seen = make(map[storage.RowID]bool)
		}
		for _, p := range ps[:n] {
			t, err := tbl.Read(c.Thread(), p.Row, id, ts)
			if err != nil || !p.Key.Equal(index.AppendKeyFromTuple(scratch[:0], t, cols)) || c.seen[p.Row] {
				continue // not visible at this snapshot, under another key, or pushed
			}
			if n > 1 {
				c.seen[p.Row] = true
			}
			pushed++
			push(p.Row, t)
		}
		for _, p := range ps[:n] {
			delete(c.seen, p.Row)
		}
		ps = ps[n:]
	}
	return pushed
}

// execChain runs a scan chain on its driver and returns its output.
func execChain(ctx *Ctx, drv plan.Driver, p *plan.ScanPipeline) (*Batch, error) {
	b := &Batch{}
	if drv.Streams() {
		est := capHint(p.Source.Est().Rows)
		b.Rows = make([]storage.Tuple, 0, est)
		if p.HasRowIDs() {
			b.RowIDs = make([]storage.RowID, 0, est)
		}
		if err := streamChain(ctx, drv, p, b.push); err != nil {
			return nil, err
		}
		return b, nil
	}
	var err error
	if drv == plan.Exchange {
		err = exchangeScan(ctx, p.Source.(*plan.SeqScanNode), b)
	} else {
		err = runSource(ctx, p.Source, b)
	}
	if err != nil {
		return nil, err
	}
	stages := ctx.chainStages(p)
	for i := range stages {
		applyStage(ctx, b, &stages[i])
	}
	return b, nil
}

// applyStage is the Materialize driver's stage: it bills the stage over the
// whole batch, then runs it in place.
func applyStage(ctx *Ctx, b *Batch, st *chainStage) {
	if st.cols == nil {
		emitArithmetic(ctx, b.NumRows(), b.AvgWidth(), st.opsPerRow())
	}
	k := 0
	for i, r := range b.Rows {
		t, keep := st.step(r, heap)
		if !keep {
			continue
		}
		b.Rows[k] = t
		if b.RowIDs != nil {
			b.RowIDs[k] = b.RowIDs[i]
		}
		k++
	}
	b.Rows = b.Rows[:k]
	if st.pred == nil {
		b.RowIDs = nil // a projection loses row identities
	} else if b.RowIDs != nil {
		b.RowIDs = b.RowIDs[:k]
	}
}

// streamChain runs a scan chain on a streaming driver, handing every
// surviving row to sink.
func streamChain(ctx *Ctx, drv plan.Driver, p *plan.ScanPipeline, sink func(storage.RowID, storage.Tuple)) error {
	stages := ctx.chainStages(p)
	if drv == plan.VecPass {
		return runVecPass(ctx, p.Source.(*plan.SeqScanNode), stages, p.HasRowIDs(), sink)
	}
	for i := range stages {
		if stages[i].cols == nil {
			stages[i].widths = getIntBuf()
		}
	}
	err := runSource(ctx, p.Source, &rowRun{ctx: ctx, stages: stages, sink: sink})
	for i := range stages {
		st := &stages[i]
		if st.cols != nil {
			continue
		}
		if err == nil {
			emitArithmetic(ctx, float64(st.inRows), sampledWidth(*st.widths), st.opsPerRow())
		}
		putIntBuf(st.widths)
		st.widths = nil
	}
	return err
}

// rowRun is the RowPass driver's per-tuple machine: the sink its source
// pushes into. Each row runs through every stage before the next is read,
// leaving behind the per-stage row counts and input widths the stage
// brackets are billed from once the source bracket has closed.
type rowRun struct {
	ctx    *Ctx
	stages []chainStage
	sink   func(storage.RowID, storage.Tuple)
}

func (rp *rowRun) expect(int) {}

func (rp *rowRun) push(rid storage.RowID, t storage.Tuple) {
	for i := range rp.stages {
		st := &rp.stages[i]
		if st.cols == nil {
			st.inRows++
			*st.widths = append(*st.widths, t.Bytes())
		}
		var keep bool
		if t, keep = st.step(t, &rp.ctx.arena); !keep {
			return
		}
	}
	rp.sink(rid, t)
}

// joinTable is the hash join's build structure, the same for every driver:
// chained hashing with one entry per distinct key — key bytes stored once in
// one arena, bucket chains linking distinct keys only — each entry heading
// the list of build rows under its key, linked in insertion order through
// next. Insert and probe therefore cost the distinct keys sharing a bucket,
// however often a key repeats, and a probe emits its matches in build-row
// order. All four slices are reused build to build, so a table that lives on
// (the Ctx's) builds with zero allocations in steady state.
type joinTable struct {
	heads   []int32     // bucket → first entry of its chain, -1 empty
	entries []joinEntry // one per distinct key
	keys    []byte      // concatenated key bytes of every entry
	next    []int32     // build row → next build row under the same key, -1 last
}

type joinEntry struct {
	off, klen   int32 // the key's bytes in keys
	first, last int32 // the key's build rows, linked through next
	chain       int32 // next entry in the same bucket
}

// build fills the table from the key columns of rows, build row i being
// rows[i]. Keys encode into keyBuf, which it returns (possibly grown).
func (t *joinTable) build(rows []storage.Tuple, keyCols []int, keyBuf []byte) []byte {
	size := 1
	for size < 2*len(rows) {
		size <<= 1
	}
	t.heads, t.next = sized(t.heads, size), sized(t.next, len(rows))
	for i := range t.heads {
		t.heads[i] = -1
	}
	t.entries = t.entries[:0]
	t.keys = t.keys[:0]
	for i, r := range rows {
		keyBuf = index.AppendKeyFromTuple(keyBuf[:0], r, keyCols)
		row := int32(i)
		t.next[row] = -1
		h, e := t.find(keyBuf)
		if e >= 0 {
			ent := &t.entries[e]
			t.next[ent.last] = row
			ent.last = row
			continue
		}
		t.entries = append(t.entries, joinEntry{off: int32(len(t.keys)), klen: int32(len(keyBuf)),
			first: row, last: row, chain: t.heads[h]})
		t.heads[h] = int32(len(t.entries) - 1)
		t.keys = append(t.keys, keyBuf...)
	}
	return keyBuf
}

// sized returns s at length n, reallocated only when it is too small.
func sized(s []int32, n int) []int32 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int32, n)
}

// find returns k's bucket and its entry, -1 when no build row has the key.
// The hash is FNV-1a over the key bytes.
func (t *joinTable) find(k []byte) (bucket int, entry int32) {
	h := uint32(2166136261)
	for _, c := range k {
		h ^= uint32(c)
		h *= 16777619
	}
	bucket = int(h) & (len(t.heads) - 1)
	for e := t.heads[bucket]; e >= 0; e = t.entries[e].chain {
		ent := &t.entries[e]
		if bytes.Equal(t.keys[ent.off:ent.off+ent.klen], k) {
			return bucket, e
		}
	}
	return bucket, -1
}

// first returns the first build row stored under k, -1 when there is none;
// next links the rest, in build-row order.
func (t *joinTable) first(k []byte) int32 {
	if _, e := t.find(k); e >= 0 {
		return t.entries[e].first
	}
	return -1
}

// chargeJoinBuild bills th a hash-table build over rows build rows into a
// table of htBytes. Every per-row charge of a join is the same call made once
// per row, so it is billed as one call over the total — here and in
// chargeJoinProbe, for the serial join and for each partition worker alike.
func (c *Ctx) chargeJoinBuild(th *hw.Thread, rows int, htBytes float64) {
	th.Alloc(htBytes) // join hash tables pre-allocate (Sec 4.3)
	c.computeOn(th, 10*float64(rows))
	th.RandWrite(float64(rows), htBytes)
	if c.JHTSleepEvery > 0 && rows > 0 {
		th.Sleep(float64((rows-1)/c.JHTSleepEvery + 1)) // 1us every JHTSleepEvery rows
	}
}

// chargeJoinProbe bills th probed lookups into a table of htBytes and the
// outRows matches of outWidth bytes they materialize.
func (c *Ctx) chargeJoinProbe(th *hw.Thread, probed, htBytes, outRows, outWidth float64) {
	c.computeOn(th, 10*probed)
	th.RandRead(probed, htBytes, 1)
	th.SeqWrite(outRows, outWidth)
}

// hashJoin is the hash join of every driver but Exchange. The build side
// materializes (it must) into a joinTable; the probe side is fed — when the
// right child is a chain on a streaming driver, its rows flow from the
// storage layer through the probe into the join output with no intermediate
// Batch. The driver selects only where the scratch lives: a streaming driver
// builds in the Ctx's table and carves output tuples from its arena, so its
// steady-state hot path allocates nothing per row; Materialize builds a
// statement-local table and heap tuples, because interpreted sessions are too
// many for each to pin either. All real work comes first; the build and probe
// brackets are billed afterwards, the probe as VEC_PROBE under VecPass and as
// HASHJOIN_PROBE otherwise (the build keeps its mode-flagged HASHJOIN_BUILD:
// the kind carries no vectorized profile).
func hashJoin(ctx *Ctx, n *plan.HashJoinNode, drv plan.Driver) (*Batch, error) {
	left, err := Execute(ctx, n.Left)
	if err != nil {
		return nil, err
	}
	var jt joinTable
	arena := heap
	if drv.Streams() {
		// Taken, not borrowed: a join on the probe side finds the Ctx's table
		// gone and builds its own instead of overwriting this one.
		jt, ctx.jt = ctx.jt, joinTable{}
		defer func() { ctx.jt = jt }()
		arena = &ctx.arena
	}
	ctx.keyBuf = jt.build(left.Rows, n.LeftKeys, ctx.keyBuf)

	right := newShape()
	defer right.release()
	out := make([]storage.Tuple, 0, capHint(n.Rows.Rows))
	// The probe side's own OU records emit here, before the build and probe
	// brackets: operator-at-a-time order.
	err = feed(ctx, n.Right, nil, func(_ storage.RowID, r storage.Tuple) {
		right.note(r)
		ctx.keyBuf = index.AppendKeyFromTuple(ctx.keyBuf[:0], r, n.RightKeys)
		for row := jt.first(ctx.keyBuf); row >= 0; row = jt.next[row] {
			out = append(out, arena.join(left.Rows[row], r))
		}
	})
	if err != nil {
		return nil, err
	}

	buildRows := float64(len(left.Rows))
	entryBytes := 8.0*float64(len(n.LeftKeys)) + 8 + 16
	htBytes := buildRows * entryBytes
	card := float64(len(jt.entries))
	leftW := left.AvgWidth()
	rightRows, rightCols, rightW := right.rows(), right.cols(), right.width()
	outRows := float64(len(out))

	start := ctx.Tracker.Start()
	ctx.chargeJoinBuild(ctx.Thread(), len(left.Rows), htBytes)
	buildFeats := ou.ExecFeatures(buildRows, left.NumCols(), leftW, card, entryBytes, 1, ctx.compiled())
	ctx.Tracker.Stop(ou.HashJoinBuild, buildFeats, start)

	// The probe's work volume covers both the probing input and the
	// materialized matches, so its tuple-count feature is their sum —
	// otherwise low-cardinality joins with large fan-out are invisible to
	// the model. Its payload feature is the emitted tuple width, which
	// drives the materialization cost.
	start = ctx.Tracker.Start()
	if drv == plan.VecPass {
		ctx.Thread().RandRead(rightRows, htBytes, 1)
		ctx.vecCompute(rightRows*vecProbeCostPerRow + vecBatches(rightRows)*vecBatchOverhead)
		ctx.Thread().SeqWrite(outRows, leftW+rightW)
		probeFeats := ou.VecProbeFeatures(rightRows+outRows, rightCols, rightW,
			card, leftW+rightW, vec.BatchRows)
		ctx.Tracker.Stop(ou.VecProbe, probeFeats, start)
	} else {
		ctx.chargeJoinProbe(ctx.Thread(), rightRows, htBytes, outRows, leftW+rightW)
		probeFeats := ou.ExecFeatures(rightRows+outRows, rightCols, rightW,
			card, leftW+rightW, 1, ctx.compiled())
		ctx.Tracker.Stop(ou.HashJoinProbe, probeFeats, start)
	}

	ctx.Thread().Free(htBytes) // the hash table is query-lifetime scratch
	return &Batch{Rows: out}, nil
}

// capHint converts an optimizer row estimate into a sane preallocation
// capacity.
func capHint(est float64) int {
	if est < 16 {
		return 16
	}
	if est > 1<<20 {
		return 1 << 20
	}
	return int(est)
}
