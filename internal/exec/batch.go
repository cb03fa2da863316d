package exec

import "mb2/internal/storage"

// Batch is a materialized set of rows flowing between operators. A scan
// chain's batch also carries its rows' identities when its parent reads
// them — a DML parent writing back, or Execute's caller — and never when a
// parent inside exec consumes it, which reads none. Batch is two slices and
// nothing else: a third word moves it into a larger allocation size class,
// which a point query pays on every statement.
type Batch struct {
	Rows   []storage.Tuple
	RowIDs []storage.RowID // nil once provenance is lost (joins, aggs), or when no parent reads it
}

// reserve sizes an empty batch for up to n rows, with row identities when
// ids is set: only Execute's caller reads them (a DML child), never a parent
// that consumes the batch inside exec. It is the one place exec draws row
// arrays and row identities from the recycled set: every batch, a result or a
// consumed one, on every driver, sizes through it.
func (b *Batch) reserve(n int, ids bool) {
	b.Rows = pooledRows(n)
	b.RowIDs = nil
	if ids {
		b.RowIDs = pooledRowIDs(n)
	}
}

// The Materialize driver's sink is the Batch itself for a batch without row
// identities and withIDs for one with them. Each is one pointer, so handing
// it to a source as a rowSink allocates nothing.
func (b *Batch) expect(n int) { b.reserve(n, false) }

type withIDs struct{ *Batch }

func (w withIDs) expect(n int) { w.reserve(n, true) }

// sink returns the Materialize sink that sizes b, with row identities when
// ids is set.
func (b *Batch) sink(ids bool) rowSink {
	if ids {
		return withIDs{b}
	}
	return b
}

// push appends a row, and its identity while the batch still carries them.
// A batch that outgrows its reservation grows through the recycled set.
func (b *Batch) push(rid storage.RowID, t storage.Tuple) {
	if len(b.Rows) == cap(b.Rows) {
		b.grow()
	}
	b.Rows = append(b.Rows, t)
	if b.RowIDs != nil {
		b.RowIDs = append(b.RowIDs, rid)
	}
}

// grow moves b's rows, and its identities, into recycled arrays of the next
// size class and recycles the outgrown ones.
func (b *Batch) grow() {
	old := *b
	b.reserve(2*cap(old.Rows), old.RowIDs != nil)
	b.Rows = append(b.Rows, old.Rows...)
	b.RowIDs = append(b.RowIDs, old.RowIDs...)
	old.recycle()
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
	widths widthLog
	ncols  int // the first row's column count
}

func (s *shape) note(t storage.Tuple) {
	if s.widths.n == 0 {
		s.ncols = len(t)
	}
	s.widths.add(t.Bytes())
}

func (s *shape) rows() float64 { return float64(s.widths.n) }

func (s *shape) cols() float64 { return float64(s.ncols) }

func (s *shape) width() float64 { return s.widths.sampled() }

// widthLog records the widths of a stream of rows as runs of equal width,
// which is what the streaming drivers keep instead of the rows (tuples are
// never materialized) to bill the exact charge the Materialize driver
// would have made. A fixed-width row stream is one run, held inline.
type widthLog struct {
	n    int        // rows recorded
	cur  widthRun   // the open run
	done []widthRun // the closed runs, in order
}

type widthRun struct{ w, n int }

func (l *widthLog) add(w int) {
	if l.cur.n > 0 && l.cur.w != w {
		l.done = append(l.done, l.cur)
		l.cur = widthRun{}
	}
	l.cur.w = w
	l.cur.n++
	l.n++
}

// sampled returns AvgWidth's statistic over the recorded widths: the mean
// of the widths at positions 0, step, 2*step, ..., step = n/64+1.
func (l *widthLog) sampled() float64 {
	if l.n == 0 {
		return 0
	}
	step := l.n/64 + 1
	total, count, pos, next := 0, 0, 0, 0 // next: the next sampled position
	for i := 0; i <= len(l.done); i++ {
		r := l.cur
		if i < len(l.done) {
			r = l.done[i]
		}
		pos += r.n
		if next < pos {
			k := (pos-1-next)/step + 1 // sampled positions inside this run
			total += k * r.w
			count += k
			next += k * step
		}
	}
	return float64(total) / float64(count)
}
