package exec

import "mb2/internal/storage"

// Batch is a materialized set of rows flowing between operators. A scan
// chain's batch also carries its rows' identities when its parent reads
// them — a DML parent writing back, or Execute's caller — and never under a
// breaker's feed, which drops them.
type Batch struct {
	Rows   []storage.Tuple
	RowIDs []storage.RowID // nil once provenance is lost (joins, aggs), or when no parent reads it
}

// reserve sizes an empty batch for up to n rows, and for their identities
// only when ids is set. It is the one place exec allocates row identities:
// the Materialize sink, the Exchange's single merged allocation and the
// streaming execChain batch all size through it.
func (b *Batch) reserve(n int, ids bool) {
	b.Rows = make([]storage.Tuple, 0, n)
	b.RowIDs = nil
	if ids {
		b.RowIDs = make([]storage.RowID, 0, n)
	}
}

// A *Batch is the Materialize driver's sink for a parent that reads no row
// identities; withIDs is the sink for one that does. Both are one pointer,
// so handing either to a source as a rowSink allocates nothing.
func (b *Batch) expect(n int) { b.reserve(n, false) }

type withIDs struct{ *Batch }

func (w withIDs) expect(n int) { w.reserve(n, true) }

// push appends a row, and its identity while the batch still carries them.
func (b *Batch) push(rid storage.RowID, t storage.Tuple) {
	b.Rows = append(b.Rows, t)
	if b.RowIDs != nil {
		b.RowIDs = append(b.RowIDs, rid)
	}
}

// NumRows returns the row count.
func (b *Batch) NumRows() float64 { return float64(len(b.Rows)) }

// NumCols returns the column count of the first row (0 when empty).
func (b *Batch) NumCols() float64 {
	if len(b.Rows) == 0 {
		return 0
	}
	return float64(len(b.Rows[0]))
}

// AvgWidth returns the average tuple width in bytes, sampled.
func (b *Batch) AvgWidth() float64 {
	if len(b.Rows) == 0 {
		return 0
	}
	step := len(b.Rows)/64 + 1
	total, n := 0, 0
	for i := 0; i < len(b.Rows); i += step {
		total += b.Rows[i].Bytes()
		n++
	}
	return float64(total) / float64(n)
}

// shape is what a breaker keeps of the rows fed to it (relational.go's feed)
// instead of the rows themselves: enough to bill afterwards exactly what a
// Batch of them is billed — rows, cols and width return NumRows, NumCols and
// AvgWidth of that Batch, bit for bit.
type shape struct {
	widths *[]int // every row's width, pooled; AvgWidth samples by position
	ncols  int    // the first row's column count
}

func newShape() shape { return shape{widths: getIntBuf()} }

func (s *shape) release() { putIntBuf(s.widths) }

func (s *shape) note(t storage.Tuple) {
	if len(*s.widths) == 0 {
		s.ncols = len(t)
	}
	*s.widths = append(*s.widths, t.Bytes())
}

func (s *shape) rows() float64 { return float64(len(*s.widths)) }

func (s *shape) cols() float64 { return float64(s.ncols) }

func (s *shape) width() float64 { return sampledWidth(*s.widths) }

// sampledWidth computes AvgWidth's statistic over a pre-extracted width
// list. The streaming drivers record per-row widths as rows pass (tuples are
// never materialized) and bill the exact charge the Materialize driver would
// have made.
func sampledWidth(widths []int) float64 {
	if len(widths) == 0 {
		return 0
	}
	step := len(widths)/64 + 1
	total, n := 0, 0
	for i := 0; i < len(widths); i += step {
		total += widths[i]
		n++
	}
	return float64(total) / float64(n)
}
