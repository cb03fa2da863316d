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
// training-data collection and runtime inference (Sec 6.1).
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

func (tr *Translator) vectorized() bool { return tr.Mode == catalog.Vectorize }

// vecFusible mirrors exec's vectorization qualification (exec.chooseDriver):
// the tree rooted at n is a fusable scan chain whose source is a sequential
// scan of an unpartitioned table (under the what-if partition override).
// Operators outside such chains fall back to the interpreter in vectorized
// mode, and their features — compiled flag false — already say so.
func (tr *Translator) vecFusible(n plan.Node) bool {
	p := plan.FuseScan(n)
	if p == nil {
		return false
	}
	src, ok := p.Source.(*plan.SeqScanNode)
	if !ok {
		return false
	}
	return tr.partitionsFor(src.Table) <= 1
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
	t := tr.DB.Table(name)
	w := 0.0
	for _, c := range project {
		w += float64(t.Meta.Schema.Columns[c].ByteWidth())
	}
	return subtreeInfo{rows: rows, cols: float64(len(project)), width: w}
}

// partitionsFor returns the effective hash-partition count for a table
// under the what-if override.
func (tr *Translator) partitionsFor(table string) int {
	if tr.PartitionsOverride > 0 {
		return tr.PartitionsOverride
	}
	if t := tr.DB.Table(table); t != nil {
		return t.PartitionCount()
	}
	return 1
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

func sameCols(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// visitParallelScan translates a scan over a partitioned table: one
// PARALLEL_SCAN invocation per partition (uniform-hash row estimate) on its
// worker chain, the exchange merge on the session thread, then the filter.
// The emission order matches exec.exchangeScan exactly.
func (tr *Translator) visitParallelScan(v *plan.SeqScanNode, parts int, out *[]OUInvocation) subtreeInfo {
	tableRows := v.TableRows
	if tableRows <= 0 {
		tableRows = tr.DB.RowCount(v.Table)
	}
	tableRows = tr.noisy(tableRows)
	cols, width := tr.tableInfo(v.Table)
	dop := tr.dopFor(parts)
	perPart := tableRows / float64(parts)
	// Chain IDs start past the invocations emitted so far, so each parallel
	// operator in the plan gets its own chain group (per-operator barriers,
	// as executed).
	base := len(*out) + 1
	for p := 0; p < parts; p++ {
		*out = append(*out, OUInvocation{
			Kind: ou.ParallelScan,
			Features: ou.ParallelScanFeatures(perPart, cols, width,
				float64(parts), float64(dop), tr.compiled()),
			Chain: base + p%dop,
		})
	}
	*out = append(*out, OUInvocation{Kind: ou.ExchangeMerge,
		Features: ou.ExchangeMergeFeatures(tableRows, width,
			float64(parts), float64(dop), tr.compiled())})
	outRows := tr.noisy(v.Rows.Rows)
	if v.Filter != nil {
		ops := tableRows * v.Filter.Ops()
		*out = append(*out, OUInvocation{Kind: ou.Arithmetic,
			Features: ou.ArithmeticFeatures(ops, tr.compiled())})
	} else {
		outRows = tableRows
	}
	return tr.projectedInfo(v.Table, v.Project, outRows)
}

// tryPartitionJoin translates a hash join that the executor would run
// partition-wise (exec.partitionWise's qualification, evaluated over the
// what-if partition count): one PARTITION_PROBE per co-located partition
// pair plus the exchange merge. Children are not visited — their scans fuse
// into the per-partition build and probe, exactly as executed.
func (tr *Translator) tryPartitionJoin(v *plan.HashJoinNode, out *[]OUInvocation) (subtreeInfo, bool) {
	ls, lok := v.Left.(*plan.SeqScanNode)
	rs, rok := v.Right.(*plan.SeqScanNode)
	if !lok || !rok || ls.Filter != nil || rs.Filter != nil || ls.Project != nil || rs.Project != nil {
		return subtreeInfo{}, false
	}
	lt, rt := tr.DB.Table(ls.Table), tr.DB.Table(rs.Table)
	if lt == nil || rt == nil {
		return subtreeInfo{}, false
	}
	parts := tr.partitionsFor(ls.Table)
	if parts <= 1 || tr.partitionsFor(rs.Table) != parts {
		return subtreeInfo{}, false
	}
	if !sameCols(v.LeftKeys, lt.PartitionKeyCols()) || !sameCols(v.RightKeys, rt.PartitionKeyCols()) {
		return subtreeInfo{}, false
	}
	leftRows := ls.TableRows
	if leftRows <= 0 {
		leftRows = tr.DB.RowCount(ls.Table)
	}
	rightRows := rs.TableRows
	if rightRows <= 0 {
		rightRows = tr.DB.RowCount(rs.Table)
	}
	leftRows, rightRows = tr.noisy(leftRows), tr.noisy(rightRows)
	leftCols, leftW := tr.tableInfo(ls.Table)
	rightCols, rightW := tr.tableInfo(rs.Table)
	card := tr.noisy(v.Rows.Distinct)
	if card <= 0 {
		card = leftRows
	}
	outRows := tr.noisy(v.Rows.Rows)
	dop := tr.dopFor(parts)
	keyBytes := 8.0 * float64(len(v.LeftKeys))
	entryBytes := keyBytes + 8 + 16
	pf := float64(parts)
	base := len(*out) + 1
	for p := 0; p < parts; p++ {
		*out = append(*out, OUInvocation{
			Kind: ou.PartitionProbe,
			Features: ou.PartitionProbeFeatures(
				(leftRows+rightRows+outRows)/pf,
				leftCols+rightCols, leftW+rightW,
				card/pf, entryBytes,
				float64(dop), tr.compiled()),
			Chain: base + p%dop,
		})
	}
	*out = append(*out, OUInvocation{Kind: ou.ExchangeMerge,
		Features: ou.ExchangeMergeFeatures(outRows, leftW+rightW,
			pf, float64(dop), tr.compiled())})
	return subtreeInfo{
		rows:  outRows,
		cols:  leftCols + rightCols,
		width: leftW + rightW,
	}, true
}

func (tr *Translator) visit(n plan.Node, out *[]OUInvocation) subtreeInfo {
	switch v := n.(type) {
	case *plan.SeqScanNode:
		if parts := tr.partitionsFor(v.Table); parts > 1 {
			return tr.visitParallelScan(v, parts, out)
		}
		tableRows := v.TableRows
		if tableRows <= 0 {
			tableRows = tr.DB.RowCount(v.Table)
		}
		tableRows = tr.noisy(tableRows)
		cols, width := tr.tableInfo(v.Table)
		if tr.vectorized() {
			// Batch-at-a-time scan: the source's own filter replays as a
			// VEC_FILTER stage; its column projection is a free columnar
			// view change (no OU), matching exec.runVecPass.
			*out = append(*out, OUInvocation{Kind: ou.VecScan,
				Features: ou.VecScanFeatures(tableRows, cols, width, vec.BatchRows)})
			outRows := tr.noisy(v.Rows.Rows)
			if v.Filter != nil {
				ops := tableRows * v.Filter.Ops()
				*out = append(*out, OUInvocation{Kind: ou.VecFilter,
					Features: ou.VecFilterFeatures(tableRows, ops, vec.BatchRows)})
			} else {
				outRows = tableRows
			}
			return tr.projectedInfo(v.Table, v.Project, outRows)
		}
		*out = append(*out, OUInvocation{Kind: ou.SeqScan,
			Features: ou.ExecFeatures(tableRows, cols, width, 0, 0, 1, tr.compiled())})
		outRows := tr.noisy(v.Rows.Rows)
		if v.Filter != nil {
			ops := tableRows * v.Filter.Ops()
			*out = append(*out, OUInvocation{Kind: ou.Arithmetic,
				Features: ou.ArithmeticFeatures(ops, tr.compiled())})
		} else {
			outRows = tableRows
		}
		return tr.projectedInfo(v.Table, v.Project, outRows)

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
			ops := rows * v.Filter.Ops()
			*out = append(*out, OUInvocation{Kind: ou.Arithmetic,
				Features: ou.ArithmeticFeatures(ops, tr.compiled())})
		}
		return tr.projectedInfo(v.Table, v.Project, rows)

	case *plan.HashJoinNode:
		if info, ok := tr.tryPartitionJoin(v, out); ok {
			return info
		}
		left := tr.visit(v.Left, out)
		right := tr.visit(v.Right, out)
		card := tr.noisy(v.Rows.Distinct)
		if card <= 0 {
			card = left.rows
		}
		keyBytes := 8.0 * float64(len(v.LeftKeys))
		entryBytes := keyBytes + 8 + 16
		*out = append(*out, OUInvocation{Kind: ou.HashJoinBuild,
			Features: ou.ExecFeatures(left.rows, left.cols, left.width, card, entryBytes, 1, tr.compiled())})
		outRows := tr.noisy(v.Rows.Rows)
		if tr.vectorized() {
			// Vectorized probes replace HASHJOIN_PROBE; the build keeps its
			// interpreted-flagged HASHJOIN_BUILD (exec.streamHashJoin).
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
		opsPerRow := 0.0
		for _, e := range v.Exprs {
			opsPerRow += e.Ops()
		}
		if tr.vectorized() && tr.vecFusible(v) {
			// A projection stage of a vectorized chain bills its expression
			// work as a VEC_FILTER stage (exec.runVecPass).
			*out = append(*out, OUInvocation{Kind: ou.VecFilter,
				Features: ou.VecFilterFeatures(child.rows, child.rows*opsPerRow, vec.BatchRows)})
		} else {
			*out = append(*out, OUInvocation{Kind: ou.Arithmetic,
				Features: ou.ArithmeticFeatures(child.rows*opsPerRow, tr.compiled())})
		}
		return subtreeInfo{rows: child.rows, cols: float64(len(v.Exprs)), width: 8 * float64(len(v.Exprs))}

	case *plan.FilterNode:
		child := tr.visit(v.Child, out)
		if tr.vectorized() && tr.vecFusible(v) {
			*out = append(*out, OUInvocation{Kind: ou.VecFilter,
				Features: ou.VecFilterFeatures(child.rows, child.rows*v.Pred.Ops(), vec.BatchRows)})
		} else {
			*out = append(*out, OUInvocation{Kind: ou.Arithmetic,
				Features: ou.ArithmeticFeatures(child.rows*v.Pred.Ops(), tr.compiled())})
		}
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
