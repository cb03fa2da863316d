package storage

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

func partitionedTable(parts int) *Table {
	t := testTable()
	t.SetPartitioning([]int{0}, parts)
	return t
}

func loadKeys(t *Table, n int) {
	for i := 0; i < n; i++ {
		t.AppendCommitted(Tuple{NewInt(int64(i)), NewString(fmt.Sprintf("v%d", i))}, 0)
	}
}

// rowMultiset canonicalizes the table's visible rows (RowID + rendered
// tuple), sorted, for exact multiset comparison.
func rowMultiset(t *Table) []string {
	var out []string
	t.Scan(nil, 0, MaxTS, func(r RowID, d Tuple) bool {
		out = append(out, fmt.Sprintf("%d|%v", r, d))
		return true
	})
	sort.Strings(out)
	return out
}

func TestPartitionRoutingCoversAndBalances(t *testing.T) {
	const n, parts = 2000, 8
	tbl := partitionedTable(parts)
	loadKeys(tbl, n)
	counts := tbl.PartitionRowCounts()
	if len(counts) != parts {
		t.Fatalf("got %d partitions, want %d", len(counts), parts)
	}
	total := 0
	for p, c := range counts {
		total += c
		if c == 0 {
			t.Errorf("partition %d received no rows out of %d", p, n)
		}
	}
	if total != n {
		t.Fatalf("partition counts sum to %d, want %d", total, n)
	}
	if err := tbl.CheckPartitionInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionScanMatchesFullScan(t *testing.T) {
	const n, parts = 1000, 4
	tbl := partitionedTable(parts)
	loadKeys(tbl, n)
	full := rowMultiset(tbl)
	var merged []string
	for p := 0; p < parts; p++ {
		prev := RowID(-1)
		tbl.ScanPartition(nil, p, 0, MaxTS, func(r RowID, d Tuple) bool {
			if r <= prev {
				t.Fatalf("partition %d scan out of RowID order: %d after %d", p, r, prev)
			}
			prev = r
			if got := tbl.PartitionOfRow(r); got != p {
				t.Fatalf("row %d scanned by partition %d but routed to %d", r, p, got)
			}
			merged = append(merged, fmt.Sprintf("%d|%v", r, d))
			return true
		})
	}
	sort.Strings(merged)
	if len(merged) != len(full) {
		t.Fatalf("partition scans saw %d rows, full scan %d", len(merged), len(full))
	}
	for i := range merged {
		if merged[i] != full[i] {
			t.Fatalf("row %d differs: %q vs %q", i, merged[i], full[i])
		}
	}
}

// TestRepartitionPreservesMultiset is the N→M property test: repartitioning
// must preserve the exact multiset of (RowID, tuple) pairs for every
// transition in the matrix, and the directory must satisfy its invariants
// at the new count.
func TestRepartitionPreservesMultiset(t *testing.T) {
	const n = 1500
	counts := []int{1, 2, 3, 4, 8, 16}
	tbl := partitionedTable(1)
	loadKeys(tbl, n)
	want := rowMultiset(tbl)
	for _, from := range counts {
		for _, to := range counts {
			tbl.Repartition(nil, from)
			tbl.Repartition(nil, to)
			if got := rowMultiset(tbl); len(got) != len(want) {
				t.Fatalf("%d->%d: %d rows, want %d", from, to, len(got), len(want))
			} else {
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%d->%d: row %d differs: %q vs %q", from, to, i, got[i], want[i])
					}
				}
			}
			if err := tbl.CheckPartitionInvariants(); err != nil {
				t.Fatalf("%d->%d: %v", from, to, err)
			}
			if got := tbl.PartitionCount(); got != to {
				t.Fatalf("%d->%d: PartitionCount = %d", from, to, got)
			}
		}
	}
}

func TestRepartitionWithVersionChainsAndTombstones(t *testing.T) {
	tbl := partitionedTable(4)
	loadKeys(tbl, 200)
	// Update half the rows and tombstone a quarter through the txn path.
	for i := 0; i < 200; i += 2 {
		row := RowID(i)
		if err := tbl.Update(nil, row, 7, MaxTS, Tuple{NewInt(int64(i)), NewString("upd")}); err != nil {
			t.Fatal(err)
		}
		tbl.CommitWrite(row, 7, 10)
	}
	for i := 0; i < 200; i += 4 {
		row := RowID(i)
		if err := tbl.Delete(nil, row, 8, MaxTS); err != nil {
			t.Fatal(err)
		}
		tbl.CommitWrite(row, 8, 11)
	}
	want := rowMultiset(tbl)
	moved := tbl.Repartition(nil, 7)
	if moved == 0 {
		t.Fatal("expected some rows to move between 4 and 7 partitions")
	}
	got := rowMultiset(tbl)
	if len(got) != len(want) {
		t.Fatalf("visible rows changed: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d differs after repartition", i)
		}
	}
	if err := tbl.CheckPartitionInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReplayWriteRoutesRecoveredRows(t *testing.T) {
	tbl := partitionedTable(4)
	// Sparse replay: row 9 first, placeholders 0..8 route when data arrives.
	tbl.ReplayWrite(9, Tuple{NewInt(9), NewString("i")}, 1)
	for i := 0; i < 9; i++ {
		tbl.ReplayWrite(RowID(i), Tuple{NewInt(int64(i)), NewString("x")}, 2)
	}
	tbl.ReplayWrite(3, nil, 3) // replayed delete keeps the routing
	if err := tbl.CheckPartitionInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := tbl.PartitionOfRow(9); got != PartitionIndex(Tuple{NewInt(9)}, []int{0}, 4) {
		t.Fatalf("recovered row routed to %d", got)
	}
}

func TestPartitionIDCoverageOverRandomKeys(t *testing.T) {
	// Full coverage of partition IDs over random keys for every partition
	// count a knob sweep can pick.
	rng := rand.New(rand.NewSource(99))
	for _, parts := range []int{2, 3, 4, 8, 16} {
		seen := make(map[int]bool)
		for i := 0; i < 4096; i++ {
			tup := Tuple{NewInt(rng.Int63()), NewString("pad")}
			p := PartitionIndex(tup, []int{0}, parts)
			if p < 0 || p >= parts {
				t.Fatalf("parts=%d: index %d out of range", parts, p)
			}
			seen[p] = true
		}
		if len(seen) != parts {
			t.Errorf("parts=%d: only %d partition IDs hit over 4096 random keys", parts, len(seen))
		}
	}
}

// FuzzPartitionKey checks the routing function's core contracts over
// arbitrary key values: determinism (the same tuple always routes to the
// same partition), range safety for any partition count, and independence
// from non-key columns.
func FuzzPartitionKey(f *testing.F) {
	f.Add(int64(0), 0.0, "", uint8(4))
	f.Add(int64(-1), 1.5, "a", uint8(1))
	f.Add(int64(math.MaxInt64), math.Inf(1), "cust-000042", uint8(16))
	f.Add(int64(math.MinInt64), -0.0, "\xff\x00", uint8(255))
	f.Fuzz(func(t *testing.T, i int64, fl float64, s string, partsByte uint8) {
		parts := int(partsByte)
		if parts < 1 {
			parts = 1
		}
		key := Tuple{NewInt(i), NewFloat(fl), NewString(s)}
		keyCols := []int{0, 1, 2}
		p1 := PartitionIndex(key, keyCols, parts)
		p2 := PartitionIndex(key, keyCols, parts)
		if p1 != p2 {
			t.Fatalf("routing not deterministic: %d vs %d", p1, p2)
		}
		if p1 < 0 || p1 >= parts {
			t.Fatalf("partition %d out of range [0,%d)", p1, parts)
		}
		// Appending a non-key column must not change the route.
		withExtra := append(key.Clone(), NewString("extra"))
		if p3 := PartitionIndex(withExtra, keyCols, parts); p3 != p1 {
			t.Fatalf("non-key column changed route: %d vs %d", p3, p1)
		}
		// A single partition swallows everything.
		if p := PartitionIndex(key, keyCols, 1); p != 0 {
			t.Fatalf("parts=1 routed to %d", p)
		}
	})
}

// TestPartitionHashPinned holds the routing hash to values computed before
// its byte packing moved into internal/fold. CheckPartitionInvariants routes
// with the same function it checks, so only a pin can tell that a changed
// hash would re-route every row.
func TestPartitionHashPinned(t *testing.T) {
	mixed := Tuple{NewFloat(1.5), NewString("abc"), NewInt(-7)}
	for _, tc := range []struct {
		name string
		tup  Tuple
		cols []int
		want uint64
	}{
		{"int", Tuple{NewInt(42)}, []int{0}, 0x8f919d0115208895},
		{"float, string, negative int", mixed, []int{0, 1, 2}, 0xc9d59eeb96ee7883},
		{"out-of-range columns only", mixed, []int{-1, 3}, 0xcbf29ce484222325},
	} {
		if got := PartitionHash(tc.tup, tc.cols); got != tc.want {
			t.Errorf("PartitionHash(%s) = %#x, want %#x", tc.name, got, tc.want)
		}
	}
}
