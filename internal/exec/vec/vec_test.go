package vec

import (
	"fmt"
	"testing"

	"mb2/internal/plan"
	"mb2/internal/storage"
)

// mkRows builds n scan rows (int id, float f, varchar s) with deterministic
// contents.
func mkRows(n int) []storage.ScanRow {
	rows := make([]storage.ScanRow, n)
	for i := range rows {
		rows[i] = storage.ScanRow{
			Row: storage.RowID(i),
			Data: storage.Tuple{
				storage.NewInt(int64(i)),
				storage.NewFloat(float64(i) / 2),
				storage.NewString(fmt.Sprintf("s%d", i%5)),
			},
		}
	}
	return rows
}

// filterParity checks Batch.Filter against per-row Expr evaluation.
func filterParity(t *testing.T, pred plan.Expr, rows []storage.ScanRow) {
	t.Helper()
	b := new(Batch)
	b.Load(rows)
	b.Filter(pred)

	var want []int32
	for i, r := range rows {
		if plan.Truthy(pred.Eval(r.Data)) {
			want = append(want, int32(i))
		}
	}
	got := b.Sel()
	if len(got) != len(want) {
		t.Fatalf("%s: %d survivors, want %d", pred, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: survivor %d = lane %d, want %d", pred, i, got[i], want[i])
		}
	}
}

func TestFilterKernelParity(t *testing.T) {
	rows := mkRows(300)
	preds := []plan.Expr{
		// Columnar fast path: col vs const, same kinds.
		plan.Cmp{Op: plan.LT, L: plan.Col(0), R: plan.IntConst(100)},
		plan.Cmp{Op: plan.GE, L: plan.Col(1), R: plan.FloatConst(75)},
		plan.Cmp{Op: plan.EQ, L: plan.Col(2), R: plan.StrConst("s3")},
		plan.Cmp{Op: plan.NE, L: plan.Col(2), R: plan.StrConst("s0")},
		// Mixed kinds compare as floats, exactly like plan.Cmp.Eval.
		plan.Cmp{Op: plan.GT, L: plan.Col(0), R: plan.FloatConst(149.5)},
		plan.Cmp{Op: plan.LE, L: plan.Col(1), R: plan.IntConst(60)},
		// Col vs col, including the mixed-kind pair (id vs id/2).
		plan.Cmp{Op: plan.GT, L: plan.Col(0), R: plan.Col(1)},
		// Mask composition.
		plan.And{
			L: plan.Cmp{Op: plan.GE, L: plan.Col(0), R: plan.IntConst(20)},
			R: plan.Cmp{Op: plan.LT, L: plan.Col(0), R: plan.IntConst(250)},
		},
		plan.Or{
			L: plan.Cmp{Op: plan.LT, L: plan.Col(0), R: plan.IntConst(10)},
			R: plan.Cmp{Op: plan.EQ, L: plan.Col(2), R: plan.StrConst("s1")},
		},
		// Row-at-a-time fallback: arithmetic inside the comparison.
		plan.Cmp{
			Op: plan.EQ,
			L:  plan.Arith{Op: plan.Mul, L: plan.Col(0), R: plan.IntConst(2)},
			R:  plan.IntConst(84),
		},
		// Non-comparison predicate: truthiness of an arithmetic result.
		plan.Arith{Op: plan.Sub, L: plan.Col(0), R: plan.IntConst(7)},
	}
	for _, p := range preds {
		filterParity(t, p, rows)
	}
	// Empty input and empty survivor sets.
	filterParity(t, plan.Cmp{Op: plan.LT, L: plan.Col(0), R: plan.IntConst(0)}, rows)
	filterParity(t, plan.Cmp{Op: plan.LT, L: plan.Col(0), R: plan.IntConst(5)}, nil)
}

func TestSequentialFiltersCompact(t *testing.T) {
	rows := mkRows(100)
	b := new(Batch)
	b.Load(rows)
	b.Filter(plan.Cmp{Op: plan.GE, L: plan.Col(0), R: plan.IntConst(10)})
	b.Filter(plan.Cmp{Op: plan.LT, L: plan.Col(0), R: plan.IntConst(20)})
	if b.Live() != 10 {
		t.Fatalf("live = %d, want 10", b.Live())
	}
	for i, lane := range b.Sel() {
		if lane != int32(10+i) {
			t.Fatalf("survivor %d = lane %d", i, lane)
		}
	}
}

func TestProjectColsIsViewOnly(t *testing.T) {
	rows := mkRows(50)
	b := new(Batch)
	b.Load(rows)
	b.Filter(plan.Cmp{Op: plan.LT, L: plan.Col(0), R: plan.IntConst(25)})
	b.ProjectCols([]int{2, 0})
	if b.NumCols() != 2 {
		t.Fatalf("cols = %d", b.NumCols())
	}
	// Lane numbering survives a column projection: lanes still index the
	// loaded chunk.
	for _, lane := range b.Sel() {
		if got := b.Value(1, lane); got.I != int64(lane) {
			t.Fatalf("lane %d col1 = %v", lane, got)
		}
		if got := b.Value(0, lane); got.S != fmt.Sprintf("s%d", lane%5) {
			t.Fatalf("lane %d col0 = %v", lane, got)
		}
	}
}

func TestProjectExprsRebasesSelection(t *testing.T) {
	rows := mkRows(40)
	b := new(Batch)
	b.Load(rows)
	pred := plan.Cmp{Op: plan.GE, L: plan.Col(0), R: plan.IntConst(30)}
	b.Filter(pred)
	exprs := []plan.Expr{
		plan.Arith{Op: plan.Add, L: plan.Col(0), R: plan.IntConst(1)},
		plan.Col(1),
	}
	b.ProjectExprs(exprs)
	if b.Live() != 10 || b.NumCols() != 2 {
		t.Fatalf("live=%d cols=%d", b.Live(), b.NumCols())
	}
	for i, lane := range b.Sel() {
		if lane != int32(i) {
			t.Fatalf("selection not rebased: %v", b.Sel())
		}
		src := 30 + i
		if got := b.Value(0, lane); got.I != int64(src+1) {
			t.Fatalf("row %d col0 = %v", i, got)
		}
		if got := b.Value(1, lane); got.Float() != float64(src)/2 {
			t.Fatalf("row %d col1 = %v", i, got)
		}
	}
}

func TestBatchReuseAcrossChunks(t *testing.T) {
	b := new(Batch)
	// A second Load must fully reset state left by filters and projections.
	b.Load(mkRows(80))
	b.Filter(plan.Cmp{Op: plan.LT, L: plan.Col(0), R: plan.IntConst(5)})
	b.ProjectExprs([]plan.Expr{plan.Col(2)})

	rows := mkRows(60)
	b.Load(rows)
	if b.Live() != 60 || b.NumCols() != 3 {
		t.Fatalf("after reload: live=%d cols=%d", b.Live(), b.NumCols())
	}
	for _, lane := range b.Sel() {
		if got := b.Value(0, lane); got.I != int64(lane) {
			t.Fatalf("lane %d col0 = %v", lane, got)
		}
	}
}

func TestLaneBytes(t *testing.T) {
	b := new(Batch)
	rows := mkRows(3)
	b.Load(rows)
	for _, lane := range b.Sel() {
		if got, want := b.LaneBytes(lane), rows[lane].Data.Bytes(); got != want {
			t.Fatalf("lane %d bytes = %d, want %d", lane, got, want)
		}
	}
}
