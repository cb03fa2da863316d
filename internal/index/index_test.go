package index

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"mb2/internal/catalog"
	"mb2/internal/hw"
	"mb2/internal/storage"
)

func meta() *catalog.IndexMeta {
	return &catalog.IndexMeta{ID: 1, Name: "idx", TableID: 1, KeyCols: []int{0}}
}

func th() *hw.Thread { return hw.NewThread(hw.DefaultCPU()) }

func intKey(v int64) Key { return EncodeKey(storage.NewInt(v)) }

func TestKeyEncodingOrdersLikeValues(t *testing.T) {
	f := func(a, b int64) bool {
		ka, kb := intKey(a), intKey(b)
		want := storage.NewInt(a).Compare(storage.NewInt(b))
		return ka.Compare(kb) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKeyEncodingFloatOrder(t *testing.T) {
	// -0 orders just below +0: the encoding orders bits, and -0's sign bit
	// is set.
	vals := []float64{math.Inf(-1), -1e9, -3.5, -0.0001, math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, 0.0001, 1.5, 2.5, 1e12, math.Inf(1)}
	for i := 1; i < len(vals); i++ {
		a := EncodeKey(storage.NewFloat(vals[i-1]))
		b := EncodeKey(storage.NewFloat(vals[i]))
		if a.Compare(b) >= 0 {
			t.Fatalf("float key order broken: %v >= %v", vals[i-1], vals[i])
		}
	}
}

func TestKeyEncodingStringsWithZeroBytes(t *testing.T) {
	a := EncodeKey(storage.NewString("a"))
	ab := EncodeKey(storage.NewString("a\x00b"))
	b := EncodeKey(storage.NewString("b"))
	if a.Compare(ab) >= 0 || ab.Compare(b) >= 0 {
		t.Fatal("embedded NUL breaks ordering")
	}
}

func TestKeyEncodingCompositeSegments(t *testing.T) {
	// ("ab", "c") must differ from ("a", "bc").
	k1 := EncodeKey(storage.NewString("ab"), storage.NewString("c"))
	k2 := EncodeKey(storage.NewString("a"), storage.NewString("bc"))
	if k1.Equal(k2) {
		t.Fatal("segments bleed together")
	}
	// Composite order: first column dominates.
	k3 := EncodeKey(storage.NewInt(1), storage.NewInt(99))
	k4 := EncodeKey(storage.NewInt(2), storage.NewInt(0))
	if k3.Compare(k4) >= 0 {
		t.Fatal("composite order broken")
	}
}

func TestInsertSearch(t *testing.T) {
	tr := NewBTree(meta())
	const n = 5000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, v := range perm {
		tr.Insert(th(), intKey(int64(v)), storage.RowID(v), 1)
	}
	if tr.NumKeys() != n || tr.NumRows() != n {
		t.Fatalf("counts: keys=%d rows=%d", tr.NumKeys(), tr.NumRows())
	}
	if tr.height < 2 {
		t.Fatalf("tree of %d keys should have split, height=%d", n, tr.height)
	}
	for _, probe := range []int64{0, 1, 17, 999, n - 1} {
		rows := tr.SearchEQ(th(), intKey(probe), 1)
		if len(rows) != 1 || rows[0] != storage.RowID(probe) {
			t.Fatalf("SearchEQ(%d) = %v", probe, rows)
		}
	}
	if rows := tr.SearchEQ(nil, intKey(n+5), 1); rows != nil {
		t.Fatalf("missing key returned %v", rows)
	}
}

func TestDuplicateKeys(t *testing.T) {
	tr := NewBTree(meta())
	for i := 0; i < 10; i++ {
		tr.Insert(nil, intKey(7), storage.RowID(i), 1)
	}
	if tr.NumKeys() != 1 || tr.NumRows() != 10 {
		t.Fatalf("dup counts: keys=%d rows=%d", tr.NumKeys(), tr.NumRows())
	}
	rows := tr.SearchEQ(nil, intKey(7), 1)
	if len(rows) != 10 {
		t.Fatalf("SearchEQ dup = %d rows", len(rows))
	}
}

func TestSearchRange(t *testing.T) {
	tr := NewBTree(meta())
	for i := 0; i < 1000; i++ {
		tr.Insert(nil, intKey(int64(i*2)), storage.RowID(i), 1) // even keys
	}
	var got []int64
	n := tr.SearchRange(th(), intKey(100), intKey(120), func(k Key, r storage.RowID) bool {
		got = append(got, int64(r))
		return true
	})
	if n != 11 { // keys 100..120 step 2
		t.Fatalf("range visited %d, want 11", n)
	}
	for i := 1; i < len(got); i++ {
		if got[i] != got[i-1]+1 {
			t.Fatalf("range order broken: %v", got)
		}
	}
	// Open-ended range.
	n = tr.SearchRange(nil, intKey(1990), nil, func(Key, storage.RowID) bool { return true })
	if n != 5 { // keys 1990, 1992, 1994, 1996, 1998
		t.Fatalf("open range visited %d, want 5", n)
	}
	// Early stop.
	n = tr.SearchRange(nil, intKey(0), nil, func(Key, storage.RowID) bool { return false })
	if n != 1 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestDelete(t *testing.T) {
	tr := NewBTree(meta())
	for i := 0; i < 100; i++ {
		tr.Insert(nil, intKey(int64(i)), storage.RowID(i), 1)
	}
	if !tr.Delete(th(), intKey(50), 50, 1) {
		t.Fatal("delete existing failed")
	}
	if tr.Delete(nil, intKey(50), 50, 1) {
		t.Fatal("double delete succeeded")
	}
	if tr.Delete(nil, intKey(5000), 1, 1) {
		t.Fatal("delete missing key succeeded")
	}
	if rows := tr.SearchEQ(nil, intKey(50), 1); rows != nil {
		t.Fatalf("deleted key still found: %v", rows)
	}
	if tr.NumKeys() != 99 {
		t.Fatalf("NumKeys = %d", tr.NumKeys())
	}
	// Deleting one of several postings keeps the key.
	tr.Insert(nil, intKey(7), 700, 1)
	if !tr.Delete(nil, intKey(7), 700, 1) {
		t.Fatal("posting delete failed")
	}
	if rows := tr.SearchEQ(nil, intKey(7), 1); len(rows) != 1 || rows[0] != 7 {
		t.Fatalf("posting delete removed wrong row: %v", rows)
	}
}

func TestBulkBuildMatchesInserts(t *testing.T) {
	const n = 10000
	rng := rand.New(rand.NewSource(7))
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Key: intKey(int64(rng.Intn(n / 2))), Row: storage.RowID(i)}
	}
	tr, res := BulkBuild(meta(), hw.DefaultCPU(), 4, entries)
	if tr.NumRows() != n {
		t.Fatalf("NumRows = %d, want %d", tr.NumRows(), n)
	}
	if res.ElapsedUS <= 0 || len(res.PerThread) != 4 {
		t.Fatalf("bad build result: %+v", res)
	}

	// Cross-check lookups against a reference map.
	ref := make(map[string][]storage.RowID)
	for _, e := range entries {
		ref[string(e.Key)] = append(ref[string(e.Key)], e.Row)
	}
	for ks, rows := range ref {
		got := tr.SearchEQ(nil, Key(ks), 1)
		if len(got) != len(rows) {
			t.Fatalf("key %x: got %d rows, want %d", ks, len(got), len(rows))
		}
	}

	// Full range scan yields globally sorted keys.
	var prev Key
	count := tr.SearchRange(nil, EncodeKey(storage.NewInt(-1)), nil, func(k Key, _ storage.RowID) bool {
		if prev != nil && prev.Compare(k) > 0 {
			t.Fatal("bulk-built tree not sorted")
		}
		prev = k
		return true
	})
	if count != n {
		t.Fatalf("range scan visited %d, want %d", count, n)
	}
}

func TestBulkBuildThreadTradeoff(t *testing.T) {
	const n = 200000
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Key: intKey(int64(i)), Row: storage.RowID(i)}
	}
	_, r1 := BulkBuild(meta(), hw.DefaultCPU(), 1, entries)
	_, r4 := BulkBuild(meta(), hw.DefaultCPU(), 4, entries)
	_, r8 := BulkBuild(meta(), hw.DefaultCPU(), 8, entries)
	if !(r8.ElapsedUS < r4.ElapsedUS && r4.ElapsedUS < r1.ElapsedUS) {
		t.Fatalf("more threads must build faster: 1=%v 4=%v 8=%v",
			r1.ElapsedUS, r4.ElapsedUS, r8.ElapsedUS)
	}
	// But total resource consumption grows with contention.
	if r8.Total.Instructions <= r1.Total.Instructions {
		t.Fatalf("contention overhead missing: 8T=%v 1T=%v",
			r8.Total.Instructions, r1.Total.Instructions)
	}
}

func TestBulkBuildEmptyAndSingle(t *testing.T) {
	tr, res := BulkBuild(meta(), hw.DefaultCPU(), 4, nil)
	if tr.NumRows() != 0 || res.ElapsedUS != 0 {
		t.Fatalf("empty build wrong: %+v", res)
	}
	tr, _ = BulkBuild(meta(), hw.DefaultCPU(), 4, []Entry{{Key: intKey(5), Row: 1}})
	if got := tr.SearchEQ(nil, intKey(5), 1); len(got) != 1 {
		t.Fatalf("single-entry build broken: %v", got)
	}
}

func TestBulkBuildKeepsDuplicatesTogether(t *testing.T) {
	// All entries share one key: only one shard may own it.
	entries := make([]Entry, 1000)
	for i := range entries {
		entries[i] = Entry{Key: intKey(42), Row: storage.RowID(i)}
	}
	tr, _ := BulkBuild(meta(), hw.DefaultCPU(), 8, entries)
	if tr.NumKeys() != 1 || tr.NumRows() != 1000 {
		t.Fatalf("dup build: keys=%d rows=%d", tr.NumKeys(), tr.NumRows())
	}
}

func TestKeyFromTuple(t *testing.T) {
	tup := storage.Tuple{storage.NewInt(1), storage.NewString("x"), storage.NewInt(9)}
	k := KeyFromTuple(tup, []int{2, 0})
	want := EncodeKey(storage.NewInt(9), storage.NewInt(1))
	if !k.Equal(want) {
		t.Fatal("KeyFromTuple mismatch")
	}
}

func TestInsertAfterBulkBuild(t *testing.T) {
	entries := make([]Entry, 5000)
	for i := range entries {
		entries[i] = Entry{Key: intKey(int64(i * 2)), Row: storage.RowID(i)}
	}
	tr, _ := BulkBuild(meta(), hw.DefaultCPU(), 2, entries)
	tr.Insert(nil, intKey(4001), 9999, 1)
	if rows := tr.SearchEQ(nil, intKey(4001), 1); len(rows) != 1 || rows[0] != 9999 {
		t.Fatalf("insert after bulk build lost: %v", rows)
	}
	// Tree remains sorted.
	var keys []string
	tr.SearchRange(nil, intKey(3990), intKey(4010), func(k Key, _ storage.RowID) bool {
		keys = append(keys, fmt.Sprintf("%x", k))
		return true
	})
	if !sort.StringsAreSorted(keys) {
		t.Fatalf("unsorted after post-build insert: %v", keys)
	}
}

func TestLoopedLookupCheaper(t *testing.T) {
	tr := NewBTree(meta())
	for i := 0; i < 100000; i++ {
		tr.Insert(nil, intKey(int64(i)), storage.RowID(i), 1)
	}
	cold := th()
	tr.SearchEQ(cold, intKey(5), 1)
	warm := th()
	tr.SearchEQ(warm, intKey(5), 100)
	if warm.Counters().CacheMisses >= cold.Counters().CacheMisses {
		t.Fatal("looped lookups must be cache-warmer")
	}
}

// TestRandomOpsAgainstReference drives the tree with random inserts,
// deletes, and lookups, mirroring every operation into a map-based model
// and checking agreement — a property test on the index's core contract.
func TestRandomOpsAgainstReference(t *testing.T) {
	tr := NewBTree(meta())
	ref := make(map[int64][]storage.RowID)
	rng := rand.New(rand.NewSource(99))
	const keySpace = 200

	remove := func(rows []storage.RowID, row storage.RowID) []storage.RowID {
		for i, r := range rows {
			if r == row {
				return append(rows[:i], rows[i+1:]...)
			}
		}
		return rows
	}

	for op := 0; op < 20000; op++ {
		k := int64(rng.Intn(keySpace))
		switch rng.Intn(3) {
		case 0: // insert
			row := storage.RowID(op)
			tr.Insert(nil, intKey(k), row, 1)
			ref[k] = append(ref[k], row)
		case 1: // delete one posting if present
			if rows := ref[k]; len(rows) > 0 {
				victim := rows[rng.Intn(len(rows))]
				if !tr.Delete(nil, intKey(k), victim, 1) {
					t.Fatalf("op %d: delete of existing (%d,%d) failed", op, k, victim)
				}
				ref[k] = remove(rows, victim)
				if len(ref[k]) == 0 {
					delete(ref, k)
				}
			} else if tr.Delete(nil, intKey(k), 0, 1) {
				t.Fatalf("op %d: delete of missing key %d succeeded", op, k)
			}
		default: // lookup
			got := tr.SearchEQ(nil, intKey(k), 1)
			if len(got) != len(ref[k]) {
				t.Fatalf("op %d: key %d has %d rows, want %d", op, k, len(got), len(ref[k]))
			}
		}
	}

	// Final full verification, including global order and counts.
	wantRows := 0
	for _, rows := range ref {
		wantRows += len(rows)
	}
	if tr.NumKeys() != len(ref) || tr.NumRows() != wantRows {
		t.Fatalf("counts: keys=%d/%d rows=%d/%d", tr.NumKeys(), len(ref), tr.NumRows(), wantRows)
	}
	var prev Key
	visited := 0
	tr.SearchRange(nil, intKey(-1), nil, func(k Key, _ storage.RowID) bool {
		if prev != nil && prev.Compare(k) > 0 {
			t.Fatal("tree order violated")
		}
		prev = k
		visited++
		return true
	})
	if visited != wantRows {
		t.Fatalf("range visited %d, want %d", visited, wantRows)
	}
}

// TestDescendingInsertsFindEveryKey: keys inserted below the tree's minimum
// descend into child 0 and leave its separator stale-high; when that child
// then splits, the promoted separator sorts below it. Routing reads only
// the separators after the first, so every key stays reachable.
func TestDescendingInsertsFindEveryKey(t *testing.T) {
	tr := NewBTree(meta())
	const n = 5000
	for v := n - 1; v >= 0; v-- {
		tr.Insert(nil, intKey(int64(v)), storage.RowID(v), 1)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for v := int64(0); v < n; v++ {
		if rows := tr.SearchEQ(nil, intKey(v), 1); len(rows) != 1 || rows[0] != storage.RowID(v) {
			t.Fatalf("SearchEQ(%d) = %v after descending inserts", v, rows)
		}
	}
}
