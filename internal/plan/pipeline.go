package plan

import (
	"slices"

	"mb2/internal/catalog"
)

// This file holds the one decision about how a plan runs: ChooseDriver
// recognises the fragment rooted at a node and picks the driver that runs it.
// The execution engine runs what it returns and the OU translator emits what
// it returns, so a prediction prices the plan the engine executes.
//
// The fragment the drivers treat differently is the scan pipeline a compiling
// engine fuses into single-pass machine code: a maximal chain of streaming
// operators — each tuple flows through every stage before the next tuple is
// produced — bounded below by a scan and above by a pipeline breaker (sort
// build, aggregation build, hash-join build, or the plan root).

// PipelineStage is one streaming stage applied per tuple after a pipeline's
// source. Exactly one of Pred and Exprs is set: a FilterNode stage carries
// its predicate and the estimate of the rows it lets through, a ProjectNode
// stage its expressions.
type PipelineStage struct {
	Pred    Expr
	OutRows float64
	Exprs   []Expr
}

// ScanPipeline is a fusable scan-rooted operator chain: a SeqScanNode or
// IdxScanNode source (whose own Filter/Project run inside the source pass)
// followed by wrapper Filter/Project stages in bottom-up order.
type ScanPipeline struct {
	Source Node
	Stages []PipelineStage
}

// HasRowIDs reports whether row identities survive the pipeline: they are
// lost by any projection (the source's own or a ProjectNode stage), exactly
// as in operator-at-a-time execution.
func (p *ScanPipeline) HasRowIDs() bool {
	switch s := p.Source.(type) {
	case *SeqScanNode:
		if s.Project != nil {
			return false
		}
	case *IdxScanNode:
		if s.Project != nil {
			return false
		}
	}
	for _, st := range p.Stages {
		if st.Exprs != nil {
			return false
		}
	}
	return true
}

// FuseScan recognizes a scan-rooted streaming chain: a SeqScanNode or
// IdxScanNode optionally wrapped in FilterNode/ProjectNode layers. It
// returns the zero ScanPipeline, whose Source is nil, when the tree rooted at
// n is not such a chain (the caller falls back to operator-at-a-time
// execution, which will retry fusion on the subtrees). The pipeline is a
// value, so a caller that keeps it on its stack allocates nothing for it.
func FuseScan(n Node) ScanPipeline {
	var stages []PipelineStage
	for {
		switch t := n.(type) {
		case *SeqScanNode, *IdxScanNode:
			// Stages were collected top-down; execution applies bottom-up.
			for i, j := 0, len(stages)-1; i < j; i, j = i+1, j-1 {
				stages[i], stages[j] = stages[j], stages[i]
			}
			return ScanPipeline{Source: n, Stages: stages}
		case *FilterNode:
			stages = append(stages, PipelineStage{Pred: t.Pred, OutRows: t.Rows.Rows})
			n = t.Child
		case *ProjectNode:
			stages = append(stages, PipelineStage{Exprs: t.Exprs})
			n = t.Child
		default:
			return ScanPipeline{}
		}
	}
}

// Driver is how a fragment runs.
type Driver int

const (
	// Materialize runs one operator at a time, every output a batch.
	Materialize Driver = iota
	// RowPass runs one tuple at a time through the whole fragment.
	RowPass
	// VecPass runs one column batch at a time through selection-vector
	// kernels; it reads sequential scans only.
	VecPass
	// Exchange is Materialize with the source fanned out over partition
	// worker chains.
	Exchange
)

// Streams reports whether the driver hands a chain's rows to a sink one at a
// time instead of materializing them.
func (d Driver) Streams() bool { return d == RowPass || d == VecPass }

// Config answers the two questions the driver choice depends on: the
// execution engine answers from the live database, the translator from the
// live database under its what-if overrides.
type Config interface {
	// DriverMode is the execution mode that picks the driver; a
	// configuration with fusion switched off answers Interpret for Compile.
	DriverMode() catalog.ExecutionMode
	// PartitionCount is the table's hash-partition count, 0 when there is no
	// such table.
	PartitionCount(table string) int
	// PartitionKeyCols is the partition-key columns of a table that exists.
	PartitionKeyCols(table string) []int
}

// ChooseDriver recognises the fragment rooted at node — a scan chain, which
// it returns as a pipeline, or a hash join — and picks its driver. It is the
// one place the execution mode and table partitioning decide how a plan runs,
// and the only caller of FuseScan. Every other node runs on Materialize; the
// pipeline returned for anything but a scan chain is the zero one.
func ChooseDriver(cfg Config, node Node) (Driver, ScanPipeline) {
	drv := Materialize
	switch cfg.DriverMode() {
	case catalog.Compile:
		drv = RowPass
	case catalog.Vectorize:
		drv = VecPass
	}
	if join, ok := node.(*HashJoinNode); ok {
		if coPartitioned(cfg, join) {
			return Exchange, ScanPipeline{}
		}
		return drv, ScanPipeline{}
	}
	p := FuseScan(node)
	if p.Source == nil {
		return Materialize, p
	}
	seq, ok := p.Source.(*SeqScanNode)
	if !ok {
		if drv == VecPass {
			drv = Materialize // the batch kernels read sequential scans only
		}
		return drv, p
	}
	if cfg.PartitionCount(seq.Table) > 1 {
		return Exchange, p
	}
	return drv, p
}

// coPartitioned reports whether a hash join qualifies for the
// partition-wise path: both inputs are bare scans of tables hash-partitioned
// the same way, joined exactly on their partition keys, so equal keys are
// guaranteed to be co-located in equal partition numbers. Key columns are
// read last: fetching them copies, and a join over anything but two bare
// scans must not pay for it.
func coPartitioned(cfg Config, n *HashJoinNode) bool {
	ls, lok := n.Left.(*SeqScanNode)
	rs, rok := n.Right.(*SeqScanNode)
	if !lok || !rok || ls.Filter != nil || rs.Filter != nil || ls.Project != nil || rs.Project != nil {
		return false
	}
	parts := cfg.PartitionCount(ls.Table)
	return parts > 1 && cfg.PartitionCount(rs.Table) == parts &&
		slices.Equal(n.LeftKeys, cfg.PartitionKeyCols(ls.Table)) && slices.Equal(n.RightKeys, cfg.PartitionKeyCols(rs.Table))
}
