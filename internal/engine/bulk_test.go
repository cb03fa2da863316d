package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"runtime/debug"
	"testing"

	"mb2/internal/catalog"
	"mb2/internal/index"
	"mb2/internal/storage"
	"mb2/internal/txn"
	"mb2/internal/wal"
)

// openMixed returns a quiesced database of two tables of n bulk-loaded rows
// each, with negative values among them: "acct" (id, id%13, balance) and
// "people" (id, score, name) — int, float and varchar columns. Every tenth
// person is deleted and one inserted by a logged transaction, and one insert
// is aborted.
func openMixed(t testing.TB, n int) *DB {
	t.Helper()
	db := Open(catalog.DefaultKnobs())
	if _, err := db.CreateTable("acct", catalog.NewSchema(
		catalog.Column{Name: "id", Type: catalog.Int64},
		catalog.Column{Name: "grp", Type: catalog.Int64},
		catalog.Column{Name: "bal", Type: catalog.Int64},
	)); err != nil {
		t.Fatal(err)
	}
	people, err := db.CreateTable("people", catalog.NewSchema(
		catalog.Column{Name: "id", Type: catalog.Int64},
		catalog.Column{Name: "score", Type: catalog.Float64},
		catalog.Column{Name: "name", Type: catalog.Varchar, Width: 4},
	))
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]storage.Tuple, n)
	for i := range rows {
		id := int64(i)
		rows[i] = storage.Tuple{storage.NewInt(id), storage.NewInt(id % 13), storage.NewInt(1000 - 7*id)}
	}
	if err := db.BulkLoad("acct", rows); err != nil {
		t.Fatal(err)
	}
	rows = make([]storage.Tuple, n)
	for i := range rows {
		rows[i] = storage.Tuple{storage.NewInt(-int64(i)), storage.NewFloat(float64(i%50) - 24.5),
			storage.NewString(fmt.Sprintf("person-%d", i%(n/3+1)))}
	}
	if err := db.BulkLoad("people", rows); err != nil {
		t.Fatal(err)
	}

	tx := db.Txns.Begin(nil)
	for i := 0; i < n; i += 10 {
		old, err := people.Read(nil, storage.RowID(i), tx.ID, tx.ReadTS)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Delete(tx, nil, people, storage.RowID(i), old, 1); err != nil {
			t.Fatal(err)
		}
	}
	insert(t, db, tx, people, storage.Tuple{storage.NewInt(math.MinInt64), storage.NewFloat(math.Inf(-1)), storage.NewString("")})
	if _, err := db.CommitLogged(tx, nil, nil); err != nil {
		t.Fatal(err)
	}
	aborted := db.Txns.Begin(nil)
	insert(t, db, aborted, people, storage.Tuple{storage.NewInt(1 << 40), storage.NewFloat(1), storage.NewString("aborted")})
	if err := db.Abort(aborted, nil); err != nil {
		t.Fatal(err)
	}
	return db
}

func insert(t testing.TB, db *DB, tx *txn.Txn, tbl *storage.Table, data storage.Tuple) {
	t.Helper()
	if _, err := db.Insert(tx, nil, tbl, data, 1); err != nil {
		t.Fatal(err)
	}
}

// referenceImage encodes the rows committed at ts the way the checkpoint
// format is specified, one piece after the other: every table's visible
// rows as insert frames in catalog order, then the header (magic, epoch,
// snapshot, payload length and CRC, header CRC) in front of them.
func referenceImage(db *DB, epoch, ts uint64) []byte {
	var payload []byte
	for _, name := range db.Catalog.Tables() {
		t := db.Table(name)
		t.Scan(nil, 0, ts, func(row storage.RowID, data storage.Tuple) bool {
			payload = wal.Record{Type: wal.RecordInsert, TableID: int32(t.Meta.ID), Row: int64(row), Payload: data}.Serialize(payload)
			return true
		})
	}
	crc := crc32.MakeTable(crc32.Castagnoli)
	img := []byte("MB2CKP01")
	img = binary.LittleEndian.AppendUint64(img, epoch)
	img = binary.LittleEndian.AppendUint64(img, ts)
	img = binary.LittleEndian.AppendUint32(img, uint32(len(payload)))
	img = binary.LittleEndian.AppendUint32(img, crc32.Checksum(payload, crc))
	img = binary.LittleEndian.AppendUint32(img, crc32.Checksum(img, crc))
	return append(img, payload...)
}

// The checkpoint, encoded from the scans into one buffer, is the reference
// encoding of the same rows byte for byte: deleted and aborted rows are
// left out, and varchars longer than their modeled width outgrow the
// buffer's estimate without a byte lost.
func TestCheckpointImageMatchesReference(t *testing.T) {
	for _, n := range []int{3, 500} {
		db := openMixed(t, n)
		st, err := db.Checkpoint(nil)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceImage(db, st.Epoch, st.SnapshotTS)
		if got := db.CheckpointImage(); !bytes.Equal(got, want) {
			t.Fatalf("%d rows a table: image of %d bytes, reference %d bytes", n, len(got), len(want))
		}
		if wantRows := 2*n - (n+9)/10 + 1; st.Rows != wantRows || st.ImageBytes != len(want) {
			t.Fatalf("%d rows a table: %d rows, %d bytes checkpointed; want %d rows, %d bytes",
				n, st.Rows, st.ImageBytes, wantRows, len(want))
		}
	}
}

// sinkDevice takes every write and keeps only its length, so a test counts
// the allocations of the code under it, not the device's.
type sinkDevice struct{ n int }

func (d *sinkDevice) Append(p []byte) (int, error)         { d.n += len(p); return len(p), nil }
func (d *sinkDevice) Contents() []byte                     { return nil }
func (d *sinkDevice) Views(dst [][]byte, off int) [][]byte { return dst }
func (d *sinkDevice) Len() int                             { return d.n }
func (d *sinkDevice) Reset(p []byte) error                 { d.n = len(p); return nil }

// A checkpoint allocates its image once, at its final size: as many objects
// for 4n rows as for n. Collection is off while it counts: under the race
// detector a collection in the window added an object a run.
func TestCheckpointAllocatesOnce(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(n int) float64 {
		db := OpenOnDevices(catalog.DefaultKnobs(), &sinkDevice{}, &sinkDevice{})
		if _, err := db.CreateTable("acct", kvSchema()); err != nil {
			t.Fatal(err)
		}
		rows := make([]storage.Tuple, n)
		for i := range rows {
			rows[i] = storage.Tuple{storage.NewInt(int64(i)), storage.NewInt(-int64(i))}
		}
		if err := db.BulkLoad("acct", rows); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := db.Checkpoint(nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(5_000), allocs(20_000); small != large {
		t.Fatalf("a checkpoint allocates %.0f objects for 5 000 rows, %.0f for 20 000", small, large)
	}
}

// referenceDistinct is the distinct count by definition: the number of
// different index keys among the rows committed at the last commit.
func referenceDistinct(db *DB, name string, cols []int) float64 {
	seen := make(map[string]struct{})
	db.Table(name).Scan(nil, 0, db.Txns.LastCommitTS(), func(_ storage.RowID, data storage.Tuple) bool {
		seen[string(index.KeyFromTuple(data, cols))] = struct{}{}
		return true
	})
	return float64(len(seen))
}

func TestDistinctCountMatchesReference(t *testing.T) {
	const n = 2000
	db := openMixed(t, n)
	// An open transaction's insert is not committed data.
	open := db.Txns.Begin(nil)
	insert(t, db, open, db.Table("acct"), storage.Tuple{storage.NewInt(-1), storage.NewInt(13), storage.NewInt(0)})

	for _, c := range []struct {
		name  string
		table string
		cols  []int
		want  float64 // 0: only the reference's count
	}{
		{"unique int", "acct", []int{0}, n},
		{"13 values", "acct", []int{1}, 13},
		{"composite", "acct", []int{1, 0}, n},
		{"composite, repeating", "people", []int{1, 2}, 0},
		{"varchar", "people", []int{2}, 0},
		{"deleted rows", "people", []int{0}, n - n/10 + 1},
		{"float", "people", []int{1}, 46}, // five scores only deleted rows held, and -Inf
	} {
		t.Run(c.name, func(t *testing.T) {
			ref := referenceDistinct(db, c.table, c.cols)
			if c.want != 0 && ref != c.want {
				t.Fatalf("reference counts %v, want %v", ref, c.want)
			}
			db.invalidateStats(c.table)
			if got := db.DistinctCount(c.table, c.cols); got != ref {
				t.Fatalf("DistinctCount = %v, reference %v", got, ref)
			}
		})
	}
	if err := db.Abort(open, nil); err != nil {
		t.Fatal(err)
	}
}

// Equal hashes never merge different keys, nor split equal ones.
func TestCountRunsSurvivesHashCollisions(t *testing.T) {
	keys := []byte("bbaabbccaa")
	span := func(off uint32, hash uint64) keyRef { return keyRef{hash: hash, off: off, end: off + 2} }
	refs := []keyRef{span(0, 7), span(2, 7), span(4, 7), span(6, 7), span(8, 7), span(6, 3)}
	if got := countRuns(refs, keys); got != 4 { // "bb", "aa", "cc" under hash 7; "cc" under hash 3
		t.Fatalf("countRuns = %d, want 4", got)
	}
}

// benchRows is the size of the benchmarks' table: oltp_point's.
const benchRows = 300_000

// openAcct returns a database holding one acct table of benchRows rows.
func openAcct(b *testing.B) *DB {
	db := Open(catalog.DefaultKnobs())
	if _, err := db.CreateTable("acct", catalog.NewSchema(
		catalog.Column{Name: "id", Type: catalog.Int64},
		catalog.Column{Name: "grp", Type: catalog.Int64},
		catalog.Column{Name: "bal", Type: catalog.Int64},
	)); err != nil {
		b.Fatal(err)
	}
	rows := make([]storage.Tuple, benchRows)
	for i := range rows {
		id := int64(i)
		rows[i] = storage.Tuple{storage.NewInt(id), storage.NewInt(id % 13), storage.NewInt(1000 + id)}
	}
	if err := db.BulkLoad("acct", rows); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkCheckpoint checkpoints a benchRows-row table: scan, encode,
// publish and truncate.
func BenchmarkCheckpoint(b *testing.B) {
	db := openAcct(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := db.Checkpoint(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBulkFlush serializes and flushes the log of loading a
// benchRows-row table in 100-row transactions: one insert record a row, one
// commit record a transaction.
func BenchmarkBulkFlush(b *testing.B) {
	db := openAcct(b)
	id := int32(db.Table("acct").Meta.ID)
	var records []wal.Record
	db.Table("acct").Scan(nil, 0, 0, func(row storage.RowID, data storage.Tuple) bool {
		txn := uint64(row/100) + 1
		records = append(records, wal.Record{Type: wal.RecordInsert, TxnID: txn, TableID: id, Row: int64(row), Payload: data})
		if row%100 == 99 {
			records = append(records, wal.Record{Type: wal.RecordCommit, TxnID: txn})
		}
		return true
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		b.StopTimer()
		if err := db.WAL.ResetLog(uint64(i)); err != nil {
			b.Fatal(err)
		}
		for _, r := range records {
			if err := db.WAL.Enqueue(nil, r); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		db.WAL.Serialize(nil)
		if _, err := db.WAL.Flush(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistinctCount counts the distinct ids of a benchRows-row table,
// the statistic a point select's plan draws its estimate from.
func BenchmarkDistinctCount(b *testing.B) {
	db := openAcct(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		db.invalidateStats("acct")
		if got := db.DistinctCount("acct", []int{0}); got != benchRows {
			b.Fatalf("DistinctCount = %v", got)
		}
	}
}
