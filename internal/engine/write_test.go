package engine

import (
	"fmt"
	"testing"

	"mb2/internal/catalog"
	"mb2/internal/index"
	"mb2/internal/storage"
	"mb2/internal/txn"
)

func row3(id, val, note int64) storage.Tuple {
	return storage.Tuple{storage.NewInt(id), storage.NewInt(val), storage.NewInt(note)}
}

// writeDB opens a table of four committed rows (i, 10i, 0), indexed on id
// (unique) and on val unless bare.
func writeDB(t *testing.T, bare bool) (*DB, *storage.Table) {
	t.Helper()
	db := Open(catalog.DefaultKnobs())
	tbl, err := db.CreateTable("w", catalog.NewSchema(
		catalog.Column{Name: "id", Type: catalog.Int64},
		catalog.Column{Name: "val", Type: catalog.Int64},
		catalog.Column{Name: "note", Type: catalog.Int64},
	))
	if err != nil {
		t.Fatal(err)
	}
	if !bare {
		for _, ix := range []struct {
			name, col string
			unique    bool
		}{{"w_id", "id", true}, {"w_val", "val", false}} {
			if _, _, err := db.CreateIndex(nil, db.Machine.CPU, ix.name, "w", []string{ix.col}, ix.unique, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	tx := db.Txns.Begin(nil)
	for i := int64(0); i < 4; i++ {
		if _, err := db.Insert(tx, nil, tbl, row3(i, 10*i, 0), 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.CommitLogged(tx, nil, nil); err != nil {
		t.Fatal(err)
	}
	return db, tbl
}

// TestWritePathKeepsIndexesExact runs every write shape through the engine
// write path, to commit and to abort, and requires the index to stay exact:
// while the transaction is in flight every committed row is still found
// under its committed keys, and afterwards CheckIndexes passes.
func TestWritePathKeepsIndexesExact(t *testing.T) {
	read := func(tbl *storage.Table, tx *txn.Txn, row storage.RowID) storage.Tuple {
		data, err := tbl.Read(nil, row, tx.ID, tx.ReadTS)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	cases := []struct {
		name  string
		write func(db *DB, tbl *storage.Table, tx *txn.Txn) error
	}{
		{"insert", func(db *DB, tbl *storage.Table, tx *txn.Txn) error {
			_, err := db.Insert(tx, nil, tbl, row3(7, 70, 0), 1)
			return err
		}},
		{"same-key update", func(db *DB, tbl *storage.Table, tx *txn.Txn) error {
			return db.Update(tx, nil, tbl, 1, read(tbl, tx, 1), row3(1, 10, 5), 1)
		}},
		{"key change", func(db *DB, tbl *storage.Table, tx *txn.Txn) error {
			return db.Update(tx, nil, tbl, 1, read(tbl, tx, 1), row3(11, 15, 0), 1)
		}},
		{"delete", func(db *DB, tbl *storage.Table, tx *txn.Txn) error {
			return db.Delete(tx, nil, tbl, 2, read(tbl, tx, 2), 1)
		}},
		{"insert then delete", func(db *DB, tbl *storage.Table, tx *txn.Txn) error {
			row, err := db.Insert(tx, nil, tbl, row3(8, 80, 0), 1)
			if err != nil {
				return err
			}
			return db.Delete(tx, nil, tbl, row, read(tbl, tx, row), 1)
		}},
		{"k1 -> k2 -> k3", func(db *DB, tbl *storage.Table, tx *txn.Txn) error {
			for _, next := range []storage.Tuple{row3(13, 31, 0), row3(23, 32, 0)} {
				if err := db.Update(tx, nil, tbl, 3, read(tbl, tx, 3), next, 1); err != nil {
					return err
				}
			}
			return nil
		}},
		{"k1 -> k2 -> k1", func(db *DB, tbl *storage.Table, tx *txn.Txn) error {
			for _, next := range []storage.Tuple{row3(13, 31, 0), row3(3, 30, 0)} {
				if err := db.Update(tx, nil, tbl, 3, read(tbl, tx, 3), next, 1); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	for _, c := range cases {
		for _, commit := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/commit=%t", c.name, commit), func(t *testing.T) {
				db, tbl := writeDB(t, false)
				tx := db.Txns.Begin(nil)
				if err := c.write(db, tbl, tx); err != nil {
					t.Fatal(err)
				}
				for i := int64(0); i < 4; i++ {
					for _, ix := range []struct {
						name string
						key  index.Key
					}{{"w_id", index.EncodeKey(storage.NewInt(i))}, {"w_val", index.EncodeKey(storage.NewInt(10 * i))}} {
						found := false
						for _, r := range db.Index(ix.name).SearchEQ(nil, ix.key, 1) {
							found = found || r == storage.RowID(i)
						}
						if !found {
							t.Fatalf("in flight: %s lost committed row %d", ix.name, i)
						}
					}
				}
				if commit {
					if _, err := db.CommitLogged(tx, nil, nil); err != nil {
						t.Fatal(err)
					}
				} else if err := db.Abort(tx, nil); err != nil {
					t.Fatal(err)
				}
				if err := db.CheckIndexes(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestCheckIndexesCatchesDamage plants each kind of damage CheckIndexes
// names: a missing entry, a stale one and a duplicated one.
func TestCheckIndexesCatchesDamage(t *testing.T) {
	for _, c := range []struct {
		name   string
		damage func(bt *index.BTree)
	}{
		{"missing", func(bt *index.BTree) { bt.Delete(nil, index.EncodeKey(storage.NewInt(2)), 2, 1) }},
		{"stale", func(bt *index.BTree) { bt.Insert(nil, index.EncodeKey(storage.NewInt(9)), 2, 1) }},
		{"twice", func(bt *index.BTree) { bt.Insert(nil, index.EncodeKey(storage.NewInt(2)), 2, 1) }},
	} {
		db, _ := writeDB(t, false)
		c.damage(db.Index("w_id"))
		if err := db.CheckIndexes(); err == nil {
			t.Errorf("%s entry went undetected", c.name)
		}
	}
}

// TestSameKeyUpdateAllocatesNoKey pins that an update leaving every key
// column alone costs an indexed table no allocation an unindexed one does
// not pay: no key is encoded for an entry that is not inserted.
func TestSameKeyUpdateAllocatesNoKey(t *testing.T) {
	allocs := func(bare bool) float64 {
		db, tbl := writeDB(t, bare)
		tx := db.Txns.Begin(nil)
		old, next := row3(1, 10, 0), row3(1, 10, 5)
		return testing.AllocsPerRun(200, func() {
			if err := db.Update(tx, nil, tbl, 1, old, next, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	if indexed, bare := allocs(false), allocs(true); indexed > bare {
		t.Fatalf("same-key update allocates %.2f on an indexed table, %.2f unindexed", indexed, bare)
	}
}
