package engine

import (
	"fmt"

	"mb2/internal/hw"
	"mb2/internal/index"
	"mb2/internal/storage"
	"mb2/internal/txn"
	"mb2/internal/wal"
)

// The one row write path. Insert, Update and Delete install a version, add
// an index entry for every key the write introduces, record the write with
// its before-image and enqueue its redo record. CommitLogged drops the
// entries of the keys committed writes replaced; Abort removes the entries
// the writes added. So a reader whose snapshot still sees a row under an
// uncommitted DELETE or key change finds it through the index, and a
// rolled-back write leaves no entry behind. CheckIndexes validates it.

// Insert installs data as a new row of tbl within tx. contenders scales the
// index latch charges, as in index.BTree.Insert.
func (db *DB) Insert(tx *txn.Txn, th *hw.Thread, tbl *storage.Table, data storage.Tuple, contenders float64) (storage.RowID, error) {
	row := tbl.Insert(th, tx.ID, data)
	return row, db.logWrite(tx, th, wal.RecordInsert, txn.Write{Table: tbl, Row: row, New: data}, contenders)
}

// Update replaces row's version old — the one tx sees — with data.
func (db *DB) Update(tx *txn.Txn, th *hw.Thread, tbl *storage.Table, row storage.RowID, old, data storage.Tuple, contenders float64) error {
	if err := tbl.Update(th, row, tx.ID, tx.ReadTS, data); err != nil {
		return err
	}
	return db.logWrite(tx, th, wal.RecordUpdate, txn.Write{Table: tbl, Row: row, Old: old, New: data}, contenders)
}

// Delete tombstones row, whose version tx sees is old.
func (db *DB) Delete(tx *txn.Txn, th *hw.Thread, tbl *storage.Table, row storage.RowID, old storage.Tuple, contenders float64) error {
	if err := tbl.Delete(th, row, tx.ID, tx.ReadTS); err != nil {
		return err
	}
	return db.logWrite(tx, th, wal.RecordDelete, txn.Write{Table: tbl, Row: row, Old: old}, contenders)
}

// logWrite indexes the keys w introduces, records w and enqueues its redo
// record. w is recorded before the enqueue can fail, so the caller's abort
// undoes it either way.
func (db *DB) logWrite(tx *txn.Txn, th *hw.Thread, typ wal.RecordType, w txn.Write, contenders float64) error {
	var scratch [64]byte
	for _, im := range db.Catalog.TableIndexes(w.Table.Meta.ID) {
		if bt := db.Index(im.Name); bt != nil && introduced(scratch[:0], w.Old, w.New, im.KeyCols) != nil {
			// Fresh key: the tree retains inserted keys.
			bt.Insert(th, index.KeyFromTuple(w.New, im.KeyCols), w.Row, contenders)
		}
	}
	tx.RecordWrite(w)
	if err := db.WAL.Enqueue(th, wal.Record{Type: typ, TxnID: tx.ID,
		TableID: int32(w.Table.Meta.ID), Row: int64(w.Row), Payload: w.New}); err != nil {
		return fmt.Errorf("engine: row write not loggable: %w", err)
	}
	return nil
}

// introduced returns, encoded into buf, the key over cols that replacing
// version from with to puts into the index, or nil: an insert (nil from)
// always puts one, a delete (nil to) never, an update only when the two
// versions' keys differ. Neither key is retained.
func introduced(buf []byte, from, to storage.Tuple, cols []int) index.Key {
	if to == nil {
		return nil
	}
	k := index.AppendKeyFromTuple(buf, to, cols)
	var scratch [64]byte
	if from != nil && k.Equal(index.AppendKeyFromTuple(scratch[:0], from, cols)) {
		return nil
	}
	return k
}

// unindex removes the index entries t's finished writes leave behind — on
// commit the keys they replaced, in write order, on abort the keys they
// added, newest first — charging each latch uncontended. Write order keeps
// the window in which a snapshot older than the commit finds one of t's
// rows through the index but not a later one (DESIGN.md "What remains") as
// narrow as two consecutive drops.
func (db *DB) unindex(t *txn.Txn, th *hw.Thread, committed bool) {
	var scratch [64]byte // Delete does not retain its key
	ws := t.Writes()
	for i := range ws {
		w := ws[len(ws)-1-i]
		gone, kept := w.New, w.Old
		if committed {
			w = ws[i]
			gone, kept = w.Old, w.New
		}
		for _, im := range db.Catalog.TableIndexes(w.Table.Meta.ID) {
			if bt, k := db.Index(im.Name), introduced(scratch[:0], kept, gone, im.KeyCols); bt != nil && k != nil {
				bt.Delete(th, k, w.Row, 1)
			}
		}
	}
}

// Abort rolls tx back: it unlinks the versions tx installed, then removes
// the index entries its writes added.
func (db *DB) Abort(tx *txn.Txn, th *hw.Thread) error {
	if err := tx.Abort(th); err != nil {
		return err
	}
	db.unindex(tx, th, false)
	return nil
}

// CheckIndexes validates every index against its table at the latest
// snapshot: the tree's structural invariants, exactly one entry per visible
// row under that row's key (none missing; none stale after an abort, a
// committed delete or key change; none twice), and at most one visible row
// per key of a unique index. Call it at a quiesce point: an in-flight write
// legitimately holds entries no committed version carries.
func (db *DB) CheckIndexes() error {
	readTS := db.Txns.LastCommitTS()
	type entry struct {
		key string
		row storage.RowID
	}
	for _, name := range db.Catalog.Tables() {
		tbl := db.Table(name)
		for _, im := range db.Catalog.TableIndexes(tbl.Meta.ID) {
			bt := db.Index(im.Name)
			if bt == nil {
				return fmt.Errorf("index %q registered but not materialized", im.Name)
			}
			if err := bt.CheckInvariants(); err != nil {
				return err
			}
			surplus := make(map[entry]int) // index entries minus visible rows
			perKey := make(map[string]int)
			tbl.Scan(nil, 0, readTS, func(row storage.RowID, data storage.Tuple) bool {
				k := string(index.KeyFromTuple(data, im.KeyCols))
				surplus[entry{k, row}]--
				perKey[k]++
				return true
			})
			bt.Entries(func(k index.Key, row storage.RowID) bool {
				surplus[entry{string(k), row}]++
				return true
			})
			for e, n := range surplus {
				if n < 0 {
					return fmt.Errorf("index %q missing entry (key %x, row %d) for a visible row", im.Name, e.key, e.row)
				}
				if n > 0 {
					return fmt.Errorf("index %q has stale entry (key %x, row %d) beyond the visible rows", im.Name, e.key, e.row)
				}
			}
			for k, n := range perKey {
				if im.Unique && n > 1 {
					return fmt.Errorf("unique index %q key %x maps to %d visible rows", im.Name, k, n)
				}
			}
		}
	}
	return nil
}
