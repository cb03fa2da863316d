package wal

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mb2/internal/hw"
	"mb2/internal/storage"
)

// redoLog builds a seeded record stream for testMeta's table: up to three
// transactions open at once, their records interleaved, each ending in a
// commit record or (one in four) in nothing, as an aborted or crashed
// transaction leaves its writes in the log. Writes are inserts of new rows,
// updates and deletes of earlier ones.
func redoLog(seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	var records []Record
	var open []uint64
	nextTxn, nextRow := uint64(1), int64(0)
	for step := 0; step < 300; step++ {
		switch c := rng.Intn(10); {
		case len(open) == 0 || (c < 2 && len(open) < 3):
			open = append(open, nextTxn)
			nextTxn++
		case c < 7:
			r := Record{Type: RecordInsert, TxnID: open[rng.Intn(len(open))], TableID: 3, Row: nextRow}
			if k := rng.Intn(4); k > 1 && nextRow > 0 {
				r.Type, r.Row = RecordUpdate, rng.Int63n(nextRow)
				if k == 3 {
					r.Type = RecordDelete
				}
			} else {
				nextRow++
			}
			if r.Type != RecordDelete {
				r.Payload = storage.Tuple{storage.NewInt(r.Row), storage.NewFloat(rng.Float64()),
					storage.NewString(fmt.Sprint(step))}
			}
			records = append(records, r)
		default:
			i := rng.Intn(len(open))
			if rng.Intn(4) > 0 {
				records = append(records, Record{Type: RecordCommit, TxnID: open[i]})
			}
			open = append(open[:i], open[i+1:]...)
		}
	}
	return records
}

// redoRun is what one way of feeding a log to a Redo produced.
type redoRun struct {
	applied  int
	commits  uint64
	charged  hw.Metrics
	versions []string // every row as read at every ts 1..commits
}

// redoPieces feeds records to one Redo cut at the given record offsets and
// reads back every row at every commit timestamp.
func redoPieces(t *testing.T, records []Record, cuts []int) redoRun {
	t.Helper()
	tbl := storage.NewTable(testMeta())
	tables := map[int32]*storage.Table{3: tbl}
	th := hw.NewThread(hw.DefaultCPU())
	var redo Redo
	var run redoRun
	prev := 0
	for _, end := range append(cuts, len(records)) {
		applied, commits, err := redo.Apply(th, records[prev:end], tables, run.commits)
		if err != nil {
			t.Fatal(err)
		}
		run.applied += applied
		run.commits += commits
		prev = end
	}
	run.charged = th.Since(hw.Counters{})
	for ts := uint64(1); ts <= run.commits; ts++ {
		for row := 0; row < tbl.NumRows(); row++ {
			data, err := tbl.Read(nil, storage.RowID(row), 0, ts)
			run.versions = append(run.versions, fmt.Sprint(ts, row, data, err))
		}
	}
	return run
}

func (a redoRun) equal(b redoRun) bool {
	return a.applied == b.applied && a.commits == b.commits && a.charged == b.charged &&
		slices.Equal(a.versions, b.versions)
}

// However a log is cut into pieces — whole, at every record boundary, in
// random k-piece cuts — Redo applies the same
// writes at the same timestamps with the same charges, and commits one
// transaction per commit record.
func TestRedoIsIndependentOfHowTheLogIsCut(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		records := redoLog(seed)
		whole := redoPieces(t, records, nil)
		if whole.commits != NumCommitted(records) {
			t.Fatalf("seed %d: Redo committed %d transactions, the log has %d commit records",
				seed, whole.commits, NumCommitted(records))
		}
		if whole.commits < 20 || whole.applied == 0 || whole.charged == (hw.Metrics{}) {
			t.Fatalf("seed %d: log too thin: %d commits, %d writes applied", seed, whole.commits, whole.applied)
		}
		each := make([]int, len(records))
		for i := range each {
			each[i] = i
		}
		cutsets := [][]int{each}
		rng := rand.New(rand.NewSource(seed))
		for _, k := range []int{2, 2, 3, 5, 17, 60} {
			cuts := make([]int, k-1)
			for i := range cuts {
				cuts[i] = rng.Intn(len(records) + 1)
			}
			slices.Sort(cuts)
			cutsets = append(cutsets, cuts)
		}
		for _, cuts := range cutsets {
			if got := redoPieces(t, records, cuts); !got.equal(whole) {
				t.Fatalf("seed %d, cut at records %v: applied %d of %d commits, charged %+v; whole log: %d of %d, %+v",
					seed, cuts, got.applied, got.commits, got.charged, whole.applied, whole.commits, whole.charged)
			}
		}
	}
}

// NumCommitted counts commit records without allocating: a replica's Status
// calls it on every staleness probe.
func TestNumCommittedDoesNotAllocate(t *testing.T) {
	records := redoLog(1)
	if n := testing.AllocsPerRun(10, func() { NumCommitted(records) }); n != 0 {
		t.Fatalf("NumCommitted allocated %v times per call", n)
	}
}

// Redo onto state that already holds commits 1..base — a log tail on top of
// a checkpoint snapshot — stamps base+1 upward.
func TestRedoStampsAboveBase(t *testing.T) {
	records := []Record{
		{Type: RecordInsert, TxnID: 1, TableID: 3, Row: 0,
			Payload: storage.Tuple{storage.NewInt(1), storage.NewFloat(0), storage.NewString("a")}},
		{Type: RecordCommit, TxnID: 1},
		{Type: RecordUpdate, TxnID: 2, TableID: 3, Row: 0,
			Payload: storage.Tuple{storage.NewInt(2), storage.NewFloat(0), storage.NewString("b")}},
		{Type: RecordCommit, TxnID: 2},
	}
	tbl := storage.NewTable(testMeta())
	// Pretend a checkpoint already owns timestamps 1..50.
	tbl.ReplayWrite(0, storage.Tuple{storage.NewInt(0), storage.NewFloat(0), storage.NewString("ckpt")}, 50)
	var redo Redo
	if _, commits, err := redo.Apply(nil, records, map[int32]*storage.Table{3: tbl}, 50); err != nil || commits != 2 {
		t.Fatalf("commits=%d err=%v", commits, err)
	}
	// Tail commits stamp 51 and 52, on top of the snapshot's 50.
	for _, want := range []struct {
		ts uint64
		s  string
	}{{50, "ckpt"}, {51, "a"}, {52, "b"}, {storage.MaxTS, "b"}} {
		data, err := tbl.Read(nil, 0, 0, want.ts)
		if err != nil || data[2].S != want.s {
			t.Fatalf("row 0 at ts %d = %v, %v (want %q)", want.ts, data, err, want.s)
		}
	}
}
