package vec

import (
	"mb2/internal/plan"
	"mb2/internal/storage"
)

// BatchRows is the number of tuples processed per batch: the vectorized
// mode's tunable constant, recorded as the trailing batch_rows feature of
// every VEC_* OU so the models see the knob rather than assuming it.
const BatchRows = 1024

// Batch is a column-major chunk of tuples plus a selection vector over its
// lanes. See the package comment for the lane/selection contract and the
// buffer-ownership rules.
type Batch struct {
	cols    [][]storage.Value // current view: one entry per visible column
	viewBuf [][]storage.Value // spare header slice swapped with cols
	pool    [][]storage.Value // arrays owned by this batch; pool[:used] are live
	used    int
	n       int     // lanes loaded by the last Load (or rebase)
	sel     []int32 // live lanes, ascending
	masks   [][]bool
	scratch storage.Tuple
}

// grabCol hands out an owned column array of n values, recycling arrays
// across chunks. Arrays in pool[:used] back the current view and are never
// handed out again until the next Load resets the chunk.
func (b *Batch) grabCol(n int) []storage.Value {
	if b.used == len(b.pool) {
		b.pool = append(b.pool, make([]storage.Value, 0, BatchRows))
	}
	c := b.pool[b.used]
	if cap(c) < n {
		c = make([]storage.Value, 0, n)
		b.pool[b.used] = c
	}
	b.used++
	return c[:n]
}

// Load fills the batch from a chunk of scan rows: every column is copied
// into column-major storage and the selection vector resets to the
// identity. All column arrays from the previous chunk are recycled.
func (b *Batch) Load(rows []storage.ScanRow) {
	b.used = 0
	n := len(rows)
	b.n = n
	ncols := 0
	if n > 0 {
		ncols = len(rows[0].Data)
	}
	b.cols = b.cols[:0]
	for c := 0; c < ncols; c++ {
		col := b.grabCol(n)
		for i := range rows {
			col[i] = rows[i].Data[c]
		}
		b.cols = append(b.cols, col)
	}
	if cap(b.sel) < n {
		b.sel = make([]int32, n)
	}
	b.sel = b.sel[:n]
	for i := range b.sel {
		b.sel[i] = int32(i)
	}
}

// Live returns the number of live lanes.
func (b *Batch) Live() int { return len(b.sel) }

// Sel returns the live lanes in ascending order. The slice is batch-owned;
// it is invalidated by the next Filter/ProjectExprs/Load.
func (b *Batch) Sel() []int32 { return b.sel }

// NumCols returns the number of visible columns.
func (b *Batch) NumCols() int { return len(b.cols) }

// Value returns the value at (col, lane).
func (b *Batch) Value(col int, lane int32) storage.Value { return b.cols[col][lane] }

// LaneBytes returns the byte width of the lane across the visible columns:
// the columnar equivalent of storage.Tuple.Bytes, used for width sampling.
func (b *Batch) LaneBytes(lane int32) int {
	total := 0
	for c := range b.cols {
		total += b.cols[c][lane].Bytes()
	}
	return total
}

// Row assembles the lane into the batch-owned scratch tuple. The returned
// tuple is overwritten by the next Row call; never retain it.
func (b *Batch) Row(lane int32) storage.Tuple {
	if cap(b.scratch) < len(b.cols) {
		b.scratch = make(storage.Tuple, len(b.cols))
	}
	t := b.scratch[:len(b.cols)]
	for c := range b.cols {
		t[c] = b.cols[c][lane]
	}
	return t
}

// ProjectCols narrows the view to the given column subset/reordering. No
// values move and lane numbering is unchanged: the columnar analogue of
// exec's free fused column projection.
func (b *Batch) ProjectCols(cols []int) {
	v := b.viewBuf[:0]
	for _, c := range cols {
		v = append(v, b.cols[c])
	}
	b.viewBuf = b.cols[:0]
	b.cols = v
}

// ProjectExprs computes one new column per expression over the live lanes
// and rebases the batch: output columns are dense and the selection vector
// resets to the identity over them. ColRef expressions compact the source
// column directly; everything else evaluates row-at-a-time for exact Expr
// parity.
func (b *Batch) ProjectExprs(exprs []plan.Expr) {
	live := len(b.sel)
	v := b.viewBuf[:0]
	for _, e := range exprs {
		col := b.grabCol(live)
		if cr, ok := e.(plan.ColRef); ok {
			src := b.cols[cr.Idx]
			for i, lane := range b.sel {
				col[i] = src[lane]
			}
		} else {
			for i, lane := range b.sel {
				col[i] = e.Eval(b.Row(lane))
			}
		}
		v = append(v, col)
	}
	b.viewBuf = b.cols[:0]
	b.cols = v
	b.n = live
	b.sel = b.sel[:live]
	for i := range b.sel {
		b.sel[i] = int32(i)
	}
}

// Filter keeps the lanes where pred is truthy, compacting the selection
// vector in place. Results are bit-identical to evaluating pred with
// plan.Expr.Eval per row.
func (b *Batch) Filter(pred plan.Expr) {
	if len(b.sel) == 0 {
		return
	}
	m := b.getMask(len(b.sel))
	b.evalMask(pred, m)
	out := b.sel[:0]
	for i, lane := range b.sel {
		if m[i] {
			out = append(out, lane)
		}
	}
	b.sel = out
	b.putMask(m)
}

// evalMask writes the boolean value of e for every live lane into m, which
// is indexed by selection-vector position.
func (b *Batch) evalMask(e plan.Expr, m []bool) {
	switch e := e.(type) {
	case plan.And:
		b.evalMask(e.L, m)
		t := b.getMask(len(m))
		b.evalMask(e.R, t)
		for i := range m {
			m[i] = m[i] && t[i]
		}
		b.putMask(t)
	case plan.Or:
		b.evalMask(e.L, m)
		t := b.getMask(len(m))
		b.evalMask(e.R, t)
		for i := range m {
			m[i] = m[i] || t[i]
		}
		b.putMask(t)
	case plan.Cmp:
		l, lok := simpleOperand(e.L)
		r, rok := simpleOperand(e.R)
		if lok && rok {
			b.cmpMask(e.Op, l, r, m)
			return
		}
		b.rowMask(e, m)
	default:
		b.rowMask(e, m)
	}
}

// rowMask is the exact-parity fallback: assemble each live lane into the
// scratch row and evaluate like the interpreter would.
func (b *Batch) rowMask(e plan.Expr, m []bool) {
	for i, lane := range b.sel {
		m[i] = plan.Truthy(e.Eval(b.Row(lane)))
	}
}

// operand is a comparison side that needs no per-lane tree walk: a column
// (col >= 0) or a constant.
type operand struct {
	col int
	v   storage.Value
}

func simpleOperand(e plan.Expr) (operand, bool) {
	switch e := e.(type) {
	case plan.ColRef:
		return operand{col: e.Idx}, true
	case plan.Const:
		return operand{col: -1, v: e.V}, true
	}
	return operand{col: -1}, false
}

func (o operand) value(b *Batch, lane int32) storage.Value {
	if o.col >= 0 {
		return b.cols[o.col][lane]
	}
	return o.v
}

// cmpMask is the columnar comparison kernel. It mirrors plan.Cmp.Eval
// exactly: same-kind operands compare via storage.Value.Compare, mixed
// kinds compare as floats.
func (b *Batch) cmpMask(op plan.CmpOp, l, r operand, m []bool) {
	for i, lane := range b.sel {
		lv := l.value(b, lane)
		rv := r.value(b, lane)
		var cv int
		if lv.Kind == rv.Kind {
			cv = lv.Compare(rv)
		} else {
			lf, rf := lv.AsFloat(), rv.AsFloat()
			switch {
			case lf < rf:
				cv = -1
			case lf > rf:
				cv = 1
			}
		}
		m[i] = cmpHolds(op, cv)
	}
}

func cmpHolds(op plan.CmpOp, cv int) bool {
	switch op {
	case plan.EQ:
		return cv == 0
	case plan.NE:
		return cv != 0
	case plan.LT:
		return cv < 0
	case plan.LE:
		return cv <= 0
	case plan.GT:
		return cv > 0
	default: // GE
		return cv >= 0
	}
}

// getMask hands out a scratch mask of n lanes from the batch's freelist.
// Every evaluation path writes all n positions, so masks are not cleared.
func (b *Batch) getMask(n int) []bool {
	if k := len(b.masks); k > 0 {
		m := b.masks[k-1]
		b.masks = b.masks[:k-1]
		if cap(m) < n {
			m = make([]bool, n)
		}
		return m[:n]
	}
	return make([]bool, n)
}

func (b *Batch) putMask(m []bool) { b.masks = append(b.masks, m) }
