package storage

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"unsafe"

	"mb2/internal/catalog"
	"mb2/internal/hw"
)

func testTable() *Table {
	meta := &catalog.TableMeta{ID: 1, Name: "t", Schema: catalog.NewSchema(
		catalog.Column{Name: "k", Type: catalog.Int64},
		catalog.Column{Name: "v", Type: catalog.Varchar, Width: 16},
	)}
	return NewTable(meta)
}

func th() *hw.Thread { return hw.NewThread(hw.DefaultCPU()) }

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewFloat(1.5), NewFloat(2.5), -1},
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("b"), 0},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if NewInt(7) != NewInt(7) || NewInt(7) == NewFloat(7) {
		t.Fatal("== on values wrong")
	}
}

// TestValueIsFourWords pins Value at Kind, I and S: 32 bytes. A float's bits
// live in I, so a fifth word buys no value kind anything. At 40 bytes a
// 2-column tuple took the 80-byte allocation size class and a 4-column one
// the 160-byte class; at 32 they take 64 and 128, and an arena chunk of
// 4 096 values is 128 KiB instead of 160. Dropping the float field cut
// olap_scan's alloc_bytes_per_op from 14.21 to 12.42 MB per cycle (-12.6 %,
// medians of 10 runs each at seed 1 on a 2-vCPU host).
func TestValueIsFourWords(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("Value is %d bytes, want 32", got)
	}
}

// TestFloatKeepsItsBits: NewFloat stores the IEEE-754 bits and Float reads
// them back unchanged, -0's sign and a NaN's payload included.
func TestFloatKeepsItsBits(t *testing.T) {
	for _, bits := range []uint64{
		math.Float64bits(math.Copysign(0, -1)),
		0x7ff8dead00beef01, // a quiet NaN with a payload
		0x7ff0000000000001, // a signalling NaN
		math.Float64bits(math.Inf(-1)),
		1, // the smallest subnormal
	} {
		if got := math.Float64bits(NewFloat(math.Float64frombits(bits)).Float()); got != bits {
			t.Errorf("NewFloat(%#x).Float() has bits %#x", bits, got)
		}
	}
}

func TestValueCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		return NewInt(a).Compare(NewInt(b)) == -NewInt(b).Compare(NewInt(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTupleClone(t *testing.T) {
	orig := Tuple{NewInt(1), NewString("x")}
	c := orig.Clone()
	c[0] = NewInt(99)
	if orig[0].I != 1 {
		t.Fatal("clone must not alias")
	}
	if orig.Bytes() != 8+1 {
		t.Fatalf("Bytes = %d", orig.Bytes())
	}
}

func TestInsertInvisibleUntilCommit(t *testing.T) {
	tbl := testTable()
	row := tbl.Insert(th(), 10, Tuple{NewInt(1), NewString("a")})
	// Another transaction (id 11, snapshot at ts 5) must not see it.
	if _, err := tbl.Read(th(), row, 11, 5); !errors.Is(err, ErrRowNotVisible) {
		t.Fatalf("uncommitted row visible to stranger: %v", err)
	}
	// The writer sees its own write.
	if got, err := tbl.Read(th(), row, 10, 5); err != nil || got[0].I != 1 {
		t.Fatalf("writer cannot see own write: %v %v", got, err)
	}
	tbl.CommitWrite(row, 10, 6)
	if got, err := tbl.Read(th(), row, 11, 6); err != nil || got[0].I != 1 {
		t.Fatalf("committed row invisible: %v %v", got, err)
	}
	// Snapshot before the commit still cannot see it.
	if _, err := tbl.Read(th(), row, 11, 5); !errors.Is(err, ErrRowNotVisible) {
		t.Fatal("commit must not be visible to older snapshots")
	}
}

func TestUpdateCreatesVersionChain(t *testing.T) {
	tbl := testTable()
	row := tbl.Insert(nil, 1, Tuple{NewInt(1), NewString("v1")})
	tbl.CommitWrite(row, 1, 1)
	if err := tbl.Update(th(), row, 2, 1, Tuple{NewInt(1), NewString("v2")}); err != nil {
		t.Fatal(err)
	}
	tbl.CommitWrite(row, 2, 2)
	if got, _ := tbl.Read(th(), row, 99, 1); got[1].S != "v1" {
		t.Fatalf("old snapshot sees %q, want v1", got[1].S)
	}
	if got, _ := tbl.Read(th(), row, 99, 2); got[1].S != "v2" {
		t.Fatalf("new snapshot sees %q, want v2", got[1].S)
	}
	if tbl.VersionCount() != 2 {
		t.Fatalf("VersionCount = %d, want 2", tbl.VersionCount())
	}
}

func TestWriteWriteConflict(t *testing.T) {
	tbl := testTable()
	row := tbl.Insert(nil, 1, Tuple{NewInt(1), NewString("a")})
	tbl.CommitWrite(row, 1, 1)
	if err := tbl.Update(nil, row, 2, 1, Tuple{NewInt(1), NewString("b")}); err != nil {
		t.Fatal(err)
	}
	// txn 3 collides with txn 2's in-flight version.
	err := tbl.Update(nil, row, 3, 1, Tuple{NewInt(1), NewString("c")})
	if !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("want write conflict, got %v", err)
	}
	// After 2 commits at ts 2, txn 4 with snapshot 1 is stale: conflict.
	tbl.CommitWrite(row, 2, 2)
	err = tbl.Update(nil, row, 4, 1, Tuple{NewInt(1), NewString("d")})
	if !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("stale update must conflict, got %v", err)
	}
	// A fresh snapshot succeeds.
	if err := tbl.Update(nil, row, 5, 2, Tuple{NewInt(1), NewString("e")}); err != nil {
		t.Fatal(err)
	}
}

func TestSelfOverwriteInPlace(t *testing.T) {
	tbl := testTable()
	row := tbl.Insert(nil, 1, Tuple{NewInt(1), NewString("a")})
	if err := tbl.Update(nil, row, 1, 0, Tuple{NewInt(1), NewString("b")}); err != nil {
		t.Fatal(err)
	}
	if tbl.VersionCount() != 1 {
		t.Fatalf("self-update must not grow the chain: %d versions", tbl.VersionCount())
	}
	tbl.CommitWrite(row, 1, 1)
	if got, _ := tbl.Read(nil, row, 9, 1); got[1].S != "b" {
		t.Fatalf("got %q", got[1].S)
	}
}

func TestDeleteTombstone(t *testing.T) {
	tbl := testTable()
	row := tbl.Insert(nil, 1, Tuple{NewInt(1), NewString("a")})
	tbl.CommitWrite(row, 1, 1)
	if err := tbl.Delete(th(), row, 2, 1); err != nil {
		t.Fatal(err)
	}
	tbl.CommitWrite(row, 2, 2)
	if _, err := tbl.Read(nil, row, 9, 2); !errors.Is(err, ErrRowNotVisible) {
		t.Fatal("deleted row must be invisible")
	}
	if got, err := tbl.Read(nil, row, 9, 1); err != nil || got[0].I != 1 {
		t.Fatal("old snapshot must still see the row")
	}
}

func TestAbortUnlinksVersion(t *testing.T) {
	tbl := testTable()
	row := tbl.Insert(nil, 1, Tuple{NewInt(1), NewString("a")})
	tbl.CommitWrite(row, 1, 1)
	if err := tbl.Update(nil, row, 2, 1, Tuple{NewInt(1), NewString("b")}); err != nil {
		t.Fatal(err)
	}
	tbl.AbortWrite(row, 2)
	if got, _ := tbl.Read(nil, row, 9, 1); got[1].S != "a" {
		t.Fatalf("abort must restore old version, got %q", got[1].S)
	}
	if tbl.VersionCount() != 1 {
		t.Fatalf("aborted version must be unlinked: %d", tbl.VersionCount())
	}
}

func TestScanVisibilityAndOrder(t *testing.T) {
	tbl := testTable()
	for i := 0; i < 10; i++ {
		row := tbl.Insert(nil, 1, Tuple{NewInt(int64(i)), NewString("x")})
		tbl.CommitWrite(row, 1, 1)
	}
	// One uncommitted row must be skipped.
	tbl.Insert(nil, 99, Tuple{NewInt(100), NewString("ghost")})
	var got []int64
	tbl.Scan(th(), 1, 1, func(_ RowID, tup Tuple) bool {
		got = append(got, tup[0].I)
		return true
	})
	if len(got) != 10 {
		t.Fatalf("scan saw %d rows, want 10", len(got))
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("scan order broken at %d: %d", i, v)
		}
	}
}

func TestScanEarlyStop(t *testing.T) {
	tbl := testTable()
	for i := 0; i < 5; i++ {
		row := tbl.Insert(nil, 1, Tuple{NewInt(int64(i))})
		tbl.CommitWrite(row, 1, 1)
	}
	n := 0
	tbl.Scan(nil, 1, 1, func(RowID, Tuple) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("early stop failed: %d", n)
	}
}

func TestVacuumPrunesOldVersions(t *testing.T) {
	tbl := testTable()
	row := tbl.Insert(nil, 1, Tuple{NewInt(1), NewString("v0")})
	tbl.CommitWrite(row, 1, 1)
	for i := 0; i < 5; i++ {
		id := uint64(10 + i)
		ts := uint64(2 + i)
		if err := tbl.Update(nil, row, id, ts-1, Tuple{NewInt(1), NewString("v")}); err != nil {
			t.Fatal(err)
		}
		tbl.CommitWrite(row, id, ts)
	}
	if tbl.VersionCount() != 6 {
		t.Fatalf("chain length = %d, want 6", tbl.VersionCount())
	}
	// Oldest active reader is at ts 4: versions visible at >=4 stay.
	pruned := tbl.Vacuum(th(), 4)
	if pruned != 3 {
		t.Fatalf("pruned %d versions, want 3", pruned)
	}
	if got, _ := tbl.Read(nil, row, 99, 4); got == nil {
		t.Fatal("version at reader snapshot must survive")
	}
	// Everything stable: prune down to a single version.
	tbl.Vacuum(nil, 100)
	if tbl.VersionCount() != 1 {
		t.Fatalf("final chain length = %d, want 1", tbl.VersionCount())
	}
}

func TestVacuumKeepsUncommitted(t *testing.T) {
	tbl := testTable()
	row := tbl.Insert(nil, 1, Tuple{NewInt(1)})
	tbl.CommitWrite(row, 1, 1)
	if err := tbl.Update(nil, row, 2, 1, Tuple{NewInt(2)}); err != nil {
		t.Fatal(err)
	}
	pruned := tbl.Vacuum(nil, 100)
	if pruned != 0 {
		t.Fatal("must not prune the committed version under an uncommitted head")
	}
	tbl.AbortWrite(row, 2)
	if got, _ := tbl.Read(nil, row, 9, 1); got == nil {
		t.Fatal("abort after vacuum lost the committed version")
	}
}

func TestReadOutOfRange(t *testing.T) {
	tbl := testTable()
	if _, err := tbl.Read(nil, 42, 1, 1); !errors.Is(err, ErrRowNotVisible) {
		t.Fatal("out-of-range read must fail")
	}
	if err := tbl.Update(nil, -1, 1, 1, Tuple{}); !errors.Is(err, ErrRowNotVisible) {
		t.Fatal("out-of-range update must fail")
	}
}

func TestHeapBytes(t *testing.T) {
	tbl := testTable()
	for i := 0; i < 4; i++ {
		tbl.Insert(nil, 1, Tuple{NewInt(int64(i)), NewString("abcd")})
	}
	want := 4.0 * float64(tbl.Meta.Schema.TupleBytes())
	if tbl.HeapBytes() != want {
		t.Fatalf("HeapBytes = %v, want %v", tbl.HeapBytes(), want)
	}
}
