package catalog

// ExecutionMode selects how the execution engine runs query pipelines: the
// NoisePage-specific knob MB2 appends to every execution OU's features
// (Sec 4.2, feature 7).
type ExecutionMode int

// Execution modes.
const (
	// Interpret runs plans through the bytecode interpreter: no startup
	// cost, higher per-tuple cost.
	Interpret ExecutionMode = iota
	// Compile JIT-compiles pipelines: per-query compilation overhead, much
	// lower per-tuple cost. Plans are cached, so repeated executions skip
	// compilation (Sec 3 assumptions).
	Compile
	// Vectorize runs qualifying scan chains and hash-join probes
	// batch-at-a-time over column-major buffers with selection vectors:
	// the lowest per-tuple cost on large inputs, but a fixed per-batch
	// overhead, and operators outside the vectorizable shapes fall back to
	// the interpreter. Its execution OUs (VEC_SCAN, VEC_FILTER, VEC_PROBE)
	// carry their own cost profiles so the planner prices the mode rather
	// than hardcoding it.
	Vectorize
)

// String implements fmt.Stringer.
func (m ExecutionMode) String() string {
	switch m {
	case Compile:
		return "COMPILE"
	case Vectorize:
		return "VECTORIZE"
	default:
		return "INTERPRET"
	}
}

// Knobs are the DBMS configuration parameters a self-driving DBMS may tune.
// Behavior knobs (Sec 4.2) are appended to the features of the OUs they
// affect.
type Knobs struct {
	// ExecutionMode affects every execution-engine OU.
	ExecutionMode ExecutionMode
	// LogBufferBytes is the size of one log buffer.
	LogBufferBytes int
	// PartitionCount is the number of hash partitions tables are created
	// with (and repartitioned to when the knob changes). 1 means
	// unpartitioned storage; the "repartition" self-driving action moves it.
	PartitionCount int
	// ScanDOP is the degree of parallelism for partitioned scans and
	// partition-wise joins: how many worker chains partitions fan out over.
	// 1 runs partitions serially; the "set DOP" self-driving action moves
	// it. It has no effect on unpartitioned tables.
	ScanDOP int
}

// DefaultKnobs returns the configuration used unless an experiment says
// otherwise.
func DefaultKnobs() Knobs {
	return Knobs{
		ExecutionMode:  Interpret,
		LogBufferBytes: 64 * 1024,
		PartitionCount: 1,
		ScanDOP:        1,
	}
}
