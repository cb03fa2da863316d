package modeling

import (
	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/exec/vec"
	"mb2/internal/ou"
	"mb2/internal/plan"
)

// OUInvocation is one translated OU with its model features.
//
// Chain identifies the parallel worker chain the invocation runs on: 0 is
// the session thread (serial OUs), nonzero values group the per-partition
// invocations of one parallel operator. Invocations sharing a nonzero Chain
// run sequentially on one worker; different chains run concurrently, and
// prediction charges only the critical-path chain to the query — mirroring
// exec/parallel.go's absorb accounting.
type OUInvocation struct {
	Kind     ou.Kind
	Features []float64
	Chain    int
}

// Translator extracts OUs from plans and actions and generates their input
// features from optimizer estimates — the same infrastructure used for both
// training-data collection and runtime inference (Sec 6.1). Which OUs a plan
// fragment costs is plan.ChooseDriver's decision, the one exec.Execute runs:
// the translator is a plan.Config answering from the live engine under the
// what-if overrides, and emits the OUs of the driver it is handed.
type Translator struct {
	DB   *engine.DB
	Mode catalog.ExecutionMode

	// CardNoise, when set, perturbs cardinality-derived features (row
	// counts, distinct keys): the noisy-estimate robustness experiment
	// (Sec 8.5 / Fig 9b).
	CardNoise func(v float64) float64

	// Cache, when set, memoizes isolated predictions for fingerprinted
	// forecast queries and planned actions across PredictInterval calls.
	// It is synced against DB.ConfigVersion() before use, so knob and
	// index changes invalidate it automatically. Must not be combined
	// with CardNoise (cached entries would bypass the perturbation), nor
	// with the what-if overrides below (fingerprints do not encode them).
	Cache *PredictionCache

	// PartitionsOverride and DOPOverride, when positive, translate plans as
	// if tables were hash-partitioned that way and scans ran at that DOP,
	// regardless of the live knobs — the what-if inputs behind the
	// "repartition" and "set DOP" planner actions. Zero means read the live
	// table state and ScanDOP knob.
	PartitionsOverride int
	DOPOverride        int
}

// NewTranslator builds a translator reading schema information from db.
func NewTranslator(db *engine.DB, mode catalog.ExecutionMode) *Translator {
	return &Translator{DB: db, Mode: mode}
}

func (tr *Translator) compiled() bool { return tr.Mode == catalog.Compile }

// DriverMode, PartitionCount and PartitionKeyCols implement plan.Config over
// the live engine under the what-if partition override.
func (tr *Translator) DriverMode() catalog.ExecutionMode { return tr.Mode }

func (tr *Translator) PartitionCount(table string) int {
	t := tr.DB.Table(table)
	switch {
	case t == nil:
		return 0
	case tr.PartitionsOverride > 0:
		return tr.PartitionsOverride
	}
	return t.PartitionCount()
}

func (tr *Translator) PartitionKeyCols(table string) []int {
	return tr.DB.Table(table).PartitionKeyCols()
}

func (tr *Translator) noisy(v float64) float64 {
	if tr.CardNoise != nil {
		v = tr.CardNoise(v)
		if v < 0 {
			v = 0
		}
	}
	return v
}

// subtreeInfo describes a plan subtree's estimated output shape.
type subtreeInfo struct {
	rows  float64
	cols  float64
	width float64
}

// TranslatePlan extracts the OU sequence for one query plan, in execution
// order (children first), with features derived from the plan's cardinality
// estimates and the catalog's schema information.
func (tr *Translator) TranslatePlan(n plan.Node) []OUInvocation {
	var out []OUInvocation
	tr.visit(n, &out)
	return out
}

// indexSize returns the index's entry count (the structure-size context of
// the IDX_SCAN cardinality feature).
func (tr *Translator) indexSize(name string) float64 {
	if idx := tr.DB.Index(name); idx != nil {
		return float64(idx.NumRows())
	}
	return 0
}

func (tr *Translator) tableInfo(name string) (cols, width float64) {
	if t := tr.DB.Table(name); t != nil {
		return float64(t.Meta.Schema.NumColumns()), float64(t.Meta.Schema.TupleBytes())
	}
	return 1, 8
}

func (tr *Translator) projectedInfo(name string, project []int, rows float64) subtreeInfo {
	cols, width := tr.tableInfo(name)
	if project == nil {
		return subtreeInfo{rows: rows, cols: cols, width: width}
	}
	// An unknown table or column prices at tableInfo's default column width.
	w := 0.0
	t := tr.DB.Table(name)
	for _, c := range project {
		if t != nil && c >= 0 && c < t.Meta.Schema.NumColumns() {
			w += float64(t.Meta.Schema.Columns[c].ByteWidth())
		} else {
			w += 8
		}
	}
	return subtreeInfo{rows: rows, cols: float64(len(project)), width: w}
}

// dopFor returns the effective worker-chain count, mirroring
// exec.partChains: capped by the partition count, floored at 1.
func (tr *Translator) dopFor(parts int) int {
	dop := tr.DOPOverride
	if dop <= 0 {
		dop = tr.DB.Knobs().ScanDOP
	}
	if dop < 1 {
		dop = 1
	}
	if dop > parts {
		dop = parts
	}
	return dop
}

// tableRows is the scan's estimate of its table's size, falling back to the
// live row count.
func (tr *Translator) tableRows(v *plan.SeqScanNode) float64 {
	if v.TableRows > 0 {
		return v.TableRows
	}
	return tr.DB.RowCount(v.Table)
}

// fanOut appends one kind invocation per partition, partition p on worker
// chain p % dop. Chain IDs start past the invocations emitted so far, so each
// parallel operator in the plan gets its own chain group (per-operator
// barriers, as executed).
func fanOut(out *[]OUInvocation, kind ou.Kind, feats []float64, parts, dop int) {
	base := len(*out) + 1
	for p := 0; p < parts; p++ {
		*out = append(*out, OUInvocation{Kind: kind, Features: feats, Chain: base + p%dop})
	}
}

// emitStage bills one filter or projection stage over rows tuples: a
// VEC_FILTER on the VecPass driver, an ARITHMETIC on every other.
func (tr *Translator) emitStage(drv plan.Driver, rows, opsPerRow float64, out *[]OUInvocation) {
	if drv == plan.VecPass {
		*out = append(*out, OUInvocation{Kind: ou.VecFilter,
			Features: ou.VecFilterFeatures(rows, rows*opsPerRow, vec.BatchRows)})
		return
	}
	*out = append(*out, OUInvocation{Kind: ou.Arithmetic,
		Features: ou.ArithmeticFeatures(rows*opsPerRow, tr.compiled())})
}

// visitChain translates a scan chain in the order the executor bills it: the
// source's bracket(s) for the driver, the source's own filter, then the
// wrapper stages bottom-up. The source's column projection is a view change
// billed inside the source bracket on every driver. Cardinality noise is
// drawn in a fixed order — table rows, the scan's output estimate (even when
// there is no filter to use it), each wrapper filter's — because CardNoise
// may be a stateful stream.
func (tr *Translator) visitChain(drv plan.Driver, p *plan.ScanPipeline, out *[]OUInvocation) subtreeInfo {
	var info subtreeInfo
	switch v := p.Source.(type) {
	case *plan.SeqScanNode:
		tableRows := tr.noisy(tr.tableRows(v))
		cols, width := tr.tableInfo(v.Table)
		switch drv {
		case plan.Exchange:
			// One PARALLEL_SCAN per partition (uniform-hash row estimate) on
			// its worker chain, then the merge on the session thread.
			parts := tr.PartitionCount(v.Table)
			dop := tr.dopFor(parts)
			fanOut(out, ou.ParallelScan, ou.ParallelScanFeatures(tableRows/float64(parts), cols, width,
				float64(parts), float64(dop), tr.compiled()), parts, dop)
			*out = append(*out, OUInvocation{Kind: ou.ExchangeMerge,
				Features: ou.ExchangeMergeFeatures(tableRows, width, float64(parts), float64(dop), tr.compiled())})
		case plan.VecPass:
			*out = append(*out, OUInvocation{Kind: ou.VecScan,
				Features: ou.VecScanFeatures(tableRows, cols, width, vec.BatchRows)})
		default:
			*out = append(*out, OUInvocation{Kind: ou.SeqScan,
				Features: ou.ExecFeatures(tableRows, cols, width, 0, 0, 1, tr.compiled())})
		}
		outRows := tr.noisy(v.Rows.Rows)
		if v.Filter != nil {
			tr.emitStage(drv, tableRows, v.Filter.Ops(), out)
		} else {
			outRows = tableRows
		}
		info = tr.projectedInfo(v.Table, v.Project, outRows)

	case *plan.IdxScanNode:
		rows := tr.noisy(v.Rows.Rows)
		cols, width := tr.tableInfo(v.Table)
		loops := v.Loops
		if loops < 1 {
			loops = 1
		}
		*out = append(*out, OUInvocation{Kind: ou.IdxScan,
			Features: ou.ExecFeatures(rows, cols, width, tr.indexSize(v.Index), 0, loops, tr.compiled())})
		if v.Filter != nil {
			tr.emitStage(drv, rows, v.Filter.Ops(), out)
		}
		info = tr.projectedInfo(v.Table, v.Project, rows)
	}
	for _, st := range p.Stages {
		if st.Pred != nil {
			tr.emitStage(drv, info.rows, st.Pred.Ops(), out)
			info.rows = tr.noisy(st.OutRows)
			continue
		}
		tr.emitStage(drv, info.rows, exprOps(st.Exprs), out)
		info.cols, info.width = float64(len(st.Exprs)), 8*float64(len(st.Exprs))
	}
	return info
}

func exprOps(exprs []plan.Expr) float64 {
	ops := 0.0
	for _, e := range exprs {
		ops += e.Ops()
	}
	return ops
}

// visitPartitionJoin translates a hash join the executor runs partition-wise:
// one PARTITION_PROBE per co-located partition pair plus the exchange merge.
// Children are not visited — their scans fuse into the per-partition build
// and probe, exactly as executed.
func (tr *Translator) visitPartitionJoin(v *plan.HashJoinNode, out *[]OUInvocation) subtreeInfo {
	ls, rs := v.Left.(*plan.SeqScanNode), v.Right.(*plan.SeqScanNode)
	leftRows, rightRows := tr.noisy(tr.tableRows(ls)), tr.noisy(tr.tableRows(rs))
	leftCols, leftW := tr.tableInfo(ls.Table)
	rightCols, rightW := tr.tableInfo(rs.Table)
	card := tr.noisy(v.Rows.Distinct)
	if card <= 0 {
		card = leftRows
	}
	outRows := tr.noisy(v.Rows.Rows)
	parts := tr.PartitionCount(ls.Table)
	dop := tr.dopFor(parts)
	entryBytes := 8.0*float64(len(v.LeftKeys)) + 8 + 16
	pf := float64(parts)
	fanOut(out, ou.PartitionProbe, ou.PartitionProbeFeatures(
		(leftRows+rightRows+outRows)/pf,
		leftCols+rightCols, leftW+rightW,
		card/pf, entryBytes,
		float64(dop), tr.compiled()), parts, dop)
	*out = append(*out, OUInvocation{Kind: ou.ExchangeMerge,
		Features: ou.ExchangeMergeFeatures(outRows, leftW+rightW, pf, float64(dop), tr.compiled())})
	return subtreeInfo{rows: outRows, cols: leftCols + rightCols, width: leftW + rightW}
}

// visit translates the subtree rooted at n in Execute's shape: ChooseDriver
// recognises the fragment and picks its driver, and the fragment's OUs are
// the ones that driver bills. Operators outside scan chains and hash joins
// have one body that bills the same OUs however its input arrives (a filter
// or projection that is not part of a chain is always ARITHMETIC; an
// aggregation or sort build consuming a streamed chain replays the charges
// of one consuming a batch); in vectorized mode they run at
// interpreted cost, and their features — compiled flag false — already say
// so.
func (tr *Translator) visit(n plan.Node, out *[]OUInvocation) subtreeInfo {
	drv, chain := plan.ChooseDriver(tr, n)
	if chain != nil {
		return tr.visitChain(drv, chain, out)
	}
	switch v := n.(type) {
	case *plan.HashJoinNode:
		if drv == plan.Exchange {
			return tr.visitPartitionJoin(v, out)
		}
		left := tr.visit(v.Left, out)
		right := tr.visit(v.Right, out)
		card := tr.noisy(v.Rows.Distinct)
		if card <= 0 {
			card = left.rows
		}
		entryBytes := 8.0*float64(len(v.LeftKeys)) + 8 + 16
		*out = append(*out, OUInvocation{Kind: ou.HashJoinBuild,
			Features: ou.ExecFeatures(left.rows, left.cols, left.width, card, entryBytes, 1, tr.compiled())})
		outRows := tr.noisy(v.Rows.Rows)
		if drv == plan.VecPass {
			// Vectorized probes replace HASHJOIN_PROBE; the build keeps its
			// interpreted-flagged HASHJOIN_BUILD (exec.hashJoin).
			*out = append(*out, OUInvocation{Kind: ou.VecProbe,
				Features: ou.VecProbeFeatures(right.rows+outRows, right.cols, right.width,
					card, left.width+right.width, vec.BatchRows)})
		} else {
			*out = append(*out, OUInvocation{Kind: ou.HashJoinProbe,
				Features: ou.ExecFeatures(right.rows+outRows, right.cols, right.width, card, left.width+right.width, 1, tr.compiled())})
		}
		return subtreeInfo{
			rows:  outRows,
			cols:  left.cols + right.cols,
			width: left.width + right.width,
		}

	case *plan.IndexJoinNode:
		outer := tr.visit(v.Outer, out)
		cols, width := tr.tableInfo(v.Table)
		rows := tr.noisy(v.Rows.Rows)
		loops := outer.rows
		if loops < 1 {
			loops = 1
		}
		*out = append(*out, OUInvocation{Kind: ou.IdxScan,
			Features: ou.ExecFeatures(rows, outer.cols, width, tr.indexSize(v.Index), 0, loops, tr.compiled())})
		return subtreeInfo{rows: rows, cols: outer.cols + cols, width: outer.width + width}

	case *plan.AggNode:
		child := tr.visit(v.Child, out)
		card := tr.noisy(v.Rows.Rows)
		if card <= 0 {
			card = 1
		}
		entryBytes := 8.0*float64(len(v.GroupBy)) + 24*float64(len(v.Aggs)) + 16
		*out = append(*out, OUInvocation{Kind: ou.AggBuild,
			Features: ou.ExecFeatures(child.rows, child.cols, child.width, card, entryBytes, 1, tr.compiled())})
		outCols := float64(len(v.GroupBy) + len(v.Aggs))
		*out = append(*out, OUInvocation{Kind: ou.AggProbe,
			Features: ou.ExecFeatures(card, outCols, entryBytes, card, entryBytes, 1, tr.compiled())})
		// Downstream operators see the materialized group tuples, not the
		// hash-table entries.
		return subtreeInfo{rows: card, cols: outCols, width: 8 * outCols}

	case *plan.SortNode:
		child := tr.visit(v.Child, out)
		*out = append(*out, OUInvocation{Kind: ou.SortBuild,
			Features: ou.ExecFeatures(child.rows, child.cols, child.width, float64(len(v.Keys)), 0, 1, tr.compiled())})
		outRows := child.rows
		if v.Limit > 0 && float64(v.Limit) < outRows {
			outRows = float64(v.Limit)
		}
		*out = append(*out, OUInvocation{Kind: ou.SortIter,
			Features: ou.ExecFeatures(outRows, child.cols, child.width, float64(len(v.Keys)), 0, 1, tr.compiled())})
		return subtreeInfo{rows: outRows, cols: child.cols, width: child.width}

	case *plan.ProjectNode:
		child := tr.visit(v.Child, out)
		tr.emitStage(plan.Materialize, child.rows, exprOps(v.Exprs), out)
		return subtreeInfo{rows: child.rows, cols: float64(len(v.Exprs)), width: 8 * float64(len(v.Exprs))}

	case *plan.FilterNode:
		child := tr.visit(v.Child, out)
		tr.emitStage(plan.Materialize, child.rows, v.Pred.Ops(), out)
		return subtreeInfo{rows: tr.noisy(v.Rows.Rows), cols: child.cols, width: child.width}

	case *plan.InsertNode:
		cols, width := tr.tableInfo(v.Table)
		rows := float64(len(v.Tuples))
		*out = append(*out, OUInvocation{Kind: ou.Insert,
			Features: ou.ExecFeatures(rows, cols, width, 0, 0, 1, tr.compiled())})
		return subtreeInfo{rows: rows, cols: cols, width: width}

	case *plan.UpdateNode:
		child := tr.visit(v.Child, out)
		cols, width := tr.tableInfo(v.Table)
		*out = append(*out, OUInvocation{Kind: ou.Update,
			Features: ou.ExecFeatures(child.rows, cols, width, 0, 0, 1, tr.compiled())})
		return subtreeInfo{rows: child.rows, cols: cols, width: width}

	case *plan.DeleteNode:
		child := tr.visit(v.Child, out)
		cols, width := tr.tableInfo(v.Table)
		*out = append(*out, OUInvocation{Kind: ou.Delete,
			Features: ou.ExecFeatures(child.rows, cols, width, 0, 0, 1, tr.compiled())})
		return subtreeInfo{rows: child.rows, cols: cols, width: width}

	case *plan.OutputNode:
		child := tr.visit(v.Child, out)
		*out = append(*out, OUInvocation{Kind: ou.Output,
			Features: ou.ExecFeatures(child.rows, child.cols, child.width, 0, 0, 1, tr.compiled())})
		return child

	default:
		return subtreeInfo{rows: 1, cols: 1, width: 8}
	}
}

// IndexBuildAction describes a planned index-creation action.
type IndexBuildAction struct {
	Table   string
	KeyCols []string
	Threads int
}

// TranslateIndexBuild produces the per-thread INDEX_BUILD OU invocations
// for a planned index creation. Elapsed time at inference is the max across
// the per-thread predictions; resource labels sum (footnote 1).
func (tr *Translator) TranslateIndexBuild(a IndexBuildAction) []OUInvocation {
	t := tr.DB.Table(a.Table)
	if t == nil {
		return nil
	}
	rows := tr.noisy(float64(t.NumRows()))
	colIdx := make([]int, 0, len(a.KeyCols))
	keyBytes := 0.0
	for _, name := range a.KeyCols {
		i := t.Meta.Schema.ColumnIndex(name)
		if i >= 0 {
			colIdx = append(colIdx, i)
			keyBytes += float64(t.Meta.Schema.Columns[i].ByteWidth())
		}
	}
	card := tr.noisy(tr.DB.DistinctCount(a.Table, colIdx))
	// Duplicate keys stay within one shard, so the effective parallelism is
	// capped by the key cardinality (matching the engine's build).
	effective := a.Threads
	if card >= 1 && float64(effective) > card {
		effective = int(card)
	}
	if effective < 1 {
		effective = 1
	}
	feats := ou.IndexBuildFeatures(rows, float64(len(a.KeyCols)), keyBytes, card, float64(effective))
	out := make([]OUInvocation, effective)
	for i := range out {
		out[i] = OUInvocation{Kind: ou.IndexBuild, Features: feats}
	}
	return out
}

// MaintenanceStats summarizes the forecast interval's write traffic for
// translating the batch OUs (GC and WAL), whose features describe the
// interval's total work (Sec 4.2).
type MaintenanceStats struct {
	Txns        float64 // transactions in the interval
	Writes      float64 // tuple writes in the interval
	RedoBytes   float64 // bytes of redo payload generated
	IntervalUS  float64
	LogBufBytes float64 // configured log-buffer size
}

// TranslateMaintenance produces the background-task OU invocations for one
// forecast interval: GC, log serialization, and log flush.
func (tr *Translator) TranslateMaintenance(s MaintenanceStats) []OUInvocation {
	if s.LogBufBytes <= 0 {
		s.LogBufBytes = float64(tr.DB.Knobs().LogBufferBytes)
	}
	records := s.Writes + s.Txns // one redo record per write + commit records
	buffers := s.RedoBytes / s.LogBufBytes
	return []OUInvocation{
		{Kind: ou.GC, Features: ou.GCFeatures(s.Txns, s.Writes, s.IntervalUS)},
		{Kind: ou.LogSerialize, Features: ou.LogSerializeFeatures(records, s.RedoBytes, buffers, s.IntervalUS)},
		{Kind: ou.LogFlush, Features: ou.LogFlushFeatures(s.RedoBytes, buffers, s.IntervalUS)},
	}
}

// TranslateTxn produces the transaction begin/commit OU pair for queries
// executed transactionally at the given arrival rate.
func (tr *Translator) TranslateTxn(txnRate, activeTxns float64) []OUInvocation {
	f := ou.TxnFeatures(txnRate, activeTxns)
	return []OUInvocation{{Kind: ou.TxnBegin, Features: f}, {Kind: ou.TxnCommit, Features: f}}
}

// RecoveryEstimate describes one node's pending recovery work: what a
// promotion (or a restart) of that node would have to do right now. Every
// field is an exact observable — a replica's staleness counters and catalog
// facts — not an optimizer estimate.
type RecoveryEstimate struct {
	// PendingRecords/PendingCommits/PendingBytes are the un-applied
	// committed suffix the node must replay.
	PendingRecords float64
	PendingCommits float64
	PendingBytes   float64
	// Rows is the node's recovered heap size; Indexes and KeyBytes size
	// the secondary-index rebuild over it.
	Rows     float64
	Indexes  float64
	KeyBytes float64
	// TupleBytes is the modeled tuple width of the establishing
	// checkpoint's snapshot.
	TupleBytes float64
}

// TranslateRecovery produces the recovery OU invocations for one node:
// REPLAY of the pending suffix, INDEX_REBUILD over the recovered heap, and
// the establishing CHECKPOINT. Summing their predictions prices a failover
// to (or a restart of) that node, which is how the planner ranks promotion
// targets and decides whether a checkpoint now would pay for itself.
func (tr *Translator) TranslateRecovery(e RecoveryEstimate) []OUInvocation {
	rowsPerIndex := e.Rows
	if e.Indexes > 1 {
		rowsPerIndex = e.Rows / e.Indexes
	}
	return []OUInvocation{
		{Kind: ou.Replay, Features: ou.ReplayFeatures(e.PendingRecords, e.PendingCommits, e.PendingBytes)},
		{Kind: ou.IndexRebuild, Features: ou.IndexRebuildFeatures(rowsPerIndex, e.Indexes, e.KeyBytes)},
		{Kind: ou.CheckpointWrite, Features: ou.CheckpointFeatures(e.Rows, e.TupleBytes)},
	}
}
