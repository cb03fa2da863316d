package storage

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"mb2/internal/hw"
)

// The reader every walk test scans as: transaction walkReader at snapshot
// walkReadTS.
const (
	walkReader = uint64(9)
	walkOther  = uint64(8)
	walkReadTS = uint64(10)
)

// mvccTable builds a table (hash-partitioned parts ways; 1 = unpartitioned)
// whose slots cover every case the visibility walk decides: rows committed
// before the snapshot, rows rewritten or tombstoned before it, rows
// rewritten or tombstoned after it, another transaction's uncommitted
// update, delete and insert, the reader's own uncommitted update, delete
// and insert, and replay placeholders that never carried data. 600 base
// rows, so a 256-row buffer flushes more than once.
func mvccTable(t *testing.T, parts int) *Table {
	t.Helper()
	tbl := testTable()
	if parts > 1 {
		tbl.SetPartitioning([]int{0}, parts)
	}
	loadKeys(tbl, 600)
	rewrite := func(row int, txn, readTS uint64, val string) {
		t.Helper()
		if err := tbl.Update(nil, RowID(row), txn, readTS, Tuple{NewInt(int64(row)), NewString(val)}); err != nil {
			t.Fatal(err)
		}
	}
	remove := func(row int, txn, readTS uint64) {
		t.Helper()
		if err := tbl.Delete(nil, RowID(row), txn, readTS); err != nil {
			t.Fatal(err)
		}
	}
	for row := 0; row < 600; row++ {
		switch row % 13 {
		case 1: // rewritten before the snapshot
			rewrite(row, 1, 0, "old")
			tbl.CommitWrite(RowID(row), 1, 5)
		case 2: // tombstoned before the snapshot
			remove(row, 1, 0)
			tbl.CommitWrite(RowID(row), 1, 5)
		case 3: // rewritten after the snapshot: the reader keeps the base row
			rewrite(row, 2, 0, "late")
			tbl.CommitWrite(RowID(row), 2, 20)
		case 4: // tombstoned after the snapshot: still visible
			remove(row, 2, 0)
			tbl.CommitWrite(RowID(row), 2, 20)
		case 5: // another transaction's in-flight update
			rewrite(row, walkOther, walkReadTS, "theirs")
		case 6: // another transaction's in-flight delete
			remove(row, walkOther, walkReadTS)
		case 7: // the reader's own in-flight update
			rewrite(row, walkReader, walkReadTS, "mine")
		case 8: // the reader's own in-flight delete
			remove(row, walkReader, walkReadTS)
		}
	}
	for i := 0; i < 5; i++ {
		tbl.Insert(nil, walkOther, Tuple{NewInt(int64(1000 + i)), NewString("their-insert")})
		tbl.Insert(nil, walkReader, Tuple{NewInt(int64(2000 + i)), NewString("my-insert")})
	}
	// A replayed row past the end leaves dataless placeholder slots behind it.
	tbl.ReplayWrite(RowID(tbl.NumRows()+3), Tuple{NewInt(3000), NewString("replayed")}, 3)
	if err := tbl.CheckPartitionInvariants(); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// wantRows is the reference the walk is held to: Table.Read, the other
// caller of visible, asked slot by slot. p < 0 selects every slot.
func wantRows(tbl *Table, p int) []ScanRow {
	var out []ScanRow
	for row := RowID(0); int(row) < tbl.NumRows(); row++ {
		if p >= 0 && tbl.PartitionCount() > 1 && tbl.PartitionOfRow(row) != p {
			continue
		}
		if data, err := tbl.Read(nil, row, walkReader, walkReadTS); err == nil {
			out = append(out, ScanRow{Row: row, Data: data})
		}
	}
	return out
}

// scanForm is one way to scan: the rows of partition p (p < 0: the whole
// table) delivered one at a time to fn, charged to th.
type scanForm struct {
	name string
	part bool // a partition form: needs p >= 0
	scan func(tbl *Table, th *hw.Thread, p int, fn func(RowID, Tuple) bool)
}

// batched adapts a batch scan to per-row delivery, and fails the test if the
// scan flushes again after fn stopped it or overruns a buffer it was given.
func batched(t *testing.T, bufCap int, fn func(RowID, Tuple) bool) func([]ScanRow) bool {
	stopped := false
	return func(rows []ScanRow) bool {
		if stopped {
			t.Error("batch delivered after the callback returned false")
		}
		if len(rows) == 0 || (bufCap > 0 && len(rows) > bufCap) {
			t.Errorf("flush of %d rows from a buffer of cap %d", len(rows), bufCap)
		}
		for _, r := range rows {
			if !fn(r.Row, r.Data) {
				stopped = true
				return false
			}
		}
		return true
	}
}

// scanPartition scans partition p alone through ScanPartitions, the one
// partition-scan entry point; the "ScanPartition" forms below run it with a
// per-row callback and with batch buffers of several capacities.
func scanPartition(tbl *Table, th *hw.Thread, p int, buf []ScanRow, fn func([]ScanRow) bool) {
	tbl.ScanPartitions(func(_ []int, scan PartitionScan) { scan(th, p, walkReader, walkReadTS, buf, fn) })
}

func scanForms(t *testing.T) []scanForm {
	forms := []scanForm{
		{"Scan", false, func(tbl *Table, th *hw.Thread, _ int, fn func(RowID, Tuple) bool) {
			tbl.Scan(th, walkReader, walkReadTS, fn)
		}},
		{"ScanPartition", true, func(tbl *Table, th *hw.Thread, p int, fn func(RowID, Tuple) bool) {
			scanPartition(tbl, th, p, nil, perRow(fn))
		}},
		{"walk", false, func(tbl *Table, th *hw.Thread, _ int, fn func(RowID, Tuple) bool) {
			tbl.walk(th, tbl.slots, nil, 0, walkReader, walkReadTS, nil, perRow(fn))
		}},
	}
	for _, c := range []int{0, 1, 7, 256} {
		c := c
		forms = append(forms,
			scanForm{fmt.Sprintf("ScanBatch/cap%d", c), false, func(tbl *Table, th *hw.Thread, _ int, fn func(RowID, Tuple) bool) {
				tbl.ScanBatch(th, walkReader, walkReadTS, make([]ScanRow, 0, c), batched(t, c, fn))
			}},
			scanForm{fmt.Sprintf("ScanPartitionBatch/cap%d", c), true, func(tbl *Table, th *hw.Thread, p int, fn func(RowID, Tuple) bool) {
				scanPartition(tbl, th, p, make([]ScanRow, 0, c), batched(t, c, fn))
			}})
	}
	return forms
}

// collect runs one form and returns what it delivered; stopAt > 0 makes the
// callback return false on its stopAt-th row.
func collect(f scanForm, tbl *Table, th *hw.Thread, p, stopAt int) []ScanRow {
	var got []ScanRow
	f.scan(tbl, th, p, func(r RowID, d Tuple) bool {
		got = append(got, ScanRow{Row: r, Data: d})
		return len(got) != stopAt
	})
	return got
}

func multiset(rows []ScanRow) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("%d|%v", r.Row, r.Data)
	}
	sort.Strings(out)
	return out
}

// TestScanFormsAgree: every scan form is the one walk behind a different
// snapshot, so all of them must deliver the sequence Table.Read predicts —
// whole-table forms the whole sequence, partition forms each partition's
// stripe in RowID order and, taken together in partition order, the same
// multiset — and must stop on the row their callback refuses.
func TestScanFormsAgree(t *testing.T) {
	for _, parts := range []int{1, 4} {
		tbl := mvccTable(t, parts)
		full := wantRows(tbl, -1)
		if len(full) < 300 {
			t.Fatalf("parts=%d: fixture leaves only %d visible rows", parts, len(full))
		}
		for _, f := range scanForms(t) {
			t.Run(fmt.Sprintf("parts%d/%s", parts, f.name), func(t *testing.T) {
				if !f.part {
					if got := collect(f, tbl, nil, -1, 0); !reflect.DeepEqual(got, full) {
						t.Fatalf("delivered %d rows, want the %d Table.Read sees, in RowID order", len(got), len(full))
					}
					for _, k := range []int{1, 2, 256, 257, len(full)} {
						if got := collect(f, tbl, nil, -1, k); !reflect.DeepEqual(got, full[:k]) {
							t.Fatalf("stopped at row %d, saw %d rows", k, len(got))
						}
					}
					return
				}
				var union []ScanRow
				for p := 0; p < tbl.PartitionCount(); p++ {
					want := wantRows(tbl, p)
					got := collect(f, tbl, nil, p, 0)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("partition %d delivered %d rows, want %d in RowID order", p, len(got), len(want))
					}
					union = append(union, got...)
					for _, k := range []int{1, 7, len(want)} {
						if got := collect(f, tbl, nil, p, k); !reflect.DeepEqual(got, want[:k]) {
							t.Fatalf("partition %d stopped at row %d, saw %d rows", p, k, len(got))
						}
					}
				}
				if !reflect.DeepEqual(multiset(union), multiset(full)) {
					t.Fatalf("partition scans together delivered %d rows, the full scan %d", len(union), len(full))
				}
			})
		}
	}
}

// TestScanCharges holds every form's hardware charge to its formula: a scan
// that runs to the end charges one streaming read of the slots it visited —
// every slot, or the partition's stripe — at the schema's tuple width, and a
// partition scan one uncontended latch before it.
func TestScanCharges(t *testing.T) {
	for _, parts := range []int{1, 4} {
		tbl := mvccTable(t, parts)
		width := float64(tbl.Meta.Schema.TupleBytes())
		var stripes []int // one partition walks every slot, placeholders included
		tbl.ScanPartitions(func(counts []int, _ PartitionScan) { stripes = counts })
		for _, f := range scanForms(t) {
			for p := range stripes {
				if !f.part && p > 0 {
					break
				}
				want := th()
				if f.part {
					want.Latch(1)
					want.SeqRead(float64(stripes[p]), width)
				} else {
					want.SeqRead(float64(tbl.NumRows()), width)
				}
				got := th()
				collect(f, tbl, got, p, 0)
				if got.Counters() != want.Counters() {
					t.Errorf("parts=%d %s partition %d charged %+v, want %+v", parts, f.name, p, got.Counters(), want.Counters())
				}
			}
		}
	}

	empty, idle := testTable(), th()
	empty.Scan(idle, walkReader, walkReadTS, func(RowID, Tuple) bool { return true })
	if idle.Counters() != (hw.Counters{}) {
		t.Errorf("scanning an empty table charged %+v", idle.Counters())
	}
}
