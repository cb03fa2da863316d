package index

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"mb2/internal/hw"
	"mb2/internal/storage"
)

// TestIndexBytesPerEntry bounds what a tree of 200k unique 8-byte keys
// keeps alive, by HeapAlloc after a collection, built three ways. The hw
// model bills such an entry 32 B (sizeBytesLocked: key+16, plus 8 per key).
// A tree whose leaves held a Key header, a key allocation, a posting-list
// header and a posting allocation per entry read 93.3 B (bulk), 133.5 B
// (ascending insert: leaves split half full and kept their grown capacity)
// and 94.5 B (random insert); leaves that keep key bytes in one slab and a
// key's first row inline read about 28, 32 and 41 B.
func TestIndexBytesPerEntry(t *testing.T) {
	const n = 200_000
	const limit = 48.0
	insert := func(order []int) *BTree {
		tr := NewBTree(meta())
		var k []byte
		for _, v := range order {
			k = AppendKeyFromTuple(k[:0], storage.Tuple{storage.NewInt(int64(v))}, []int{0})
			tr.Insert(nil, k, storage.RowID(v), 1)
		}
		return tr
	}
	ascending := make([]int, n)
	for i := range ascending {
		ascending[i] = i
	}
	random := rand.New(rand.NewSource(1)).Perm(n)
	for _, c := range []struct {
		name  string
		build func() *BTree
	}{
		{"bulk", func() *BTree {
			entries := make([]Entry, n)
			for i := range entries {
				entries[i] = Entry{Key: intKey(int64(i)), Row: storage.RowID(i)}
			}
			tr, _ := BulkBuild(meta(), hw.DefaultCPU(), 4, entries)
			return tr
		}},
		{"ascending insert", func() *BTree { return insert(ascending) }},
		{"random insert", func() *BTree { return insert(random) }},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		tr := c.build()
		runtime.GC()
		runtime.ReadMemStats(&after)
		perEntry := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
		runtime.KeepAlive(tr)
		t.Logf("%s: %.1f B/entry", c.name, perEntry)
		if perEntry > limit {
			t.Errorf("%s: %.1f B per entry, want at most %.0f", c.name, perEntry, limit)
		}
	}
}

// TestSearchRangeKeysOutliveTheLatch: the keys SearchRange hands out are
// the tree's own bytes, and a caller may keep them after the read latch is
// released (exec's index scan compares them against row versions later).
// A reader keeps every key it is handed while a writer splits, compacts
// and deletes in the same leaves; every kept key must still equal the copy
// taken when it was handed out.
func TestSearchRangeKeysOutliveTheLatch(t *testing.T) {
	const space = 4000
	tr := NewBTree(meta())
	for v := 0; v < space; v += 2 {
		tr.Insert(nil, intKey(int64(v)), storage.RowID(v), 1)
	}
	var kept, copies []Key
	read := func(lo int) {
		tr.SearchRange(nil, intKey(int64(lo)), intKey(int64(lo+200)), func(k Key, _ storage.RowID) bool {
			kept = append(kept, k)
			copies = append(copies, bytes.Clone(k))
			return true
		})
	}
	// Deterministically first: keep a range, delete every kept key, then
	// insert into the same leaves until their slabs compact and split.
	read(1000)
	for v := 1000; v <= 1200; v += 2 {
		tr.Delete(nil, intKey(int64(v)), storage.RowID(v), 1)
	}
	for v := 1000; v <= 1200; v++ {
		tr.Insert(nil, intKey(int64(v)), storage.RowID(v), 1)
	}
	// Then concurrently.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(2))
		for op := 0; op < 30000; op++ {
			v := rng.Intn(space)
			if op%3 == 2 {
				tr.Delete(nil, intKey(int64(v)), storage.RowID(v), 1)
			} else {
				tr.Insert(nil, intKey(int64(v)), storage.RowID(v), 1)
			}
		}
	}()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		read(rng.Intn(space))
	}
	wg.Wait()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := range kept {
		if !kept[i].Equal(copies[i]) {
			t.Fatalf("kept key %d reads %x, was %x when handed out", i, kept[i], copies[i])
		}
	}
}
