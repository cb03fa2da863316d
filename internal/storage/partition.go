package storage

import (
	"fmt"
	"math"

	"mb2/internal/catalog"
	"mb2/internal/fold"
	"mb2/internal/hw"
)

// This file implements hash partitioning over the table's slot array. A
// partitioned table keeps its global RowID space — slots, version chains,
// WAL replay identities, and index postings are untouched — and layers a
// routing directory on top: every row is assigned to one of P partitions by
// hashing its partition-key columns. Partition scans walk only their
// partition's stripe of the slot array, in RowID order, so merging the
// per-partition streams in partition order is deterministic regardless of
// which worker ran which partition (the PR 2 discipline applied to
// execution).
//
// The partition of a row never changes while the partition count is fixed:
// partition keys are immutable (they are the tables' primary identifiers,
// and Update never rewrites them on a routed row). Repartitioning N→M
// rebuilds the directory copy-on-write and swaps it atomically, so the
// operation preserves the exact multiset of rows and never moves a version.

// partUnassigned marks a directory entry whose row has no materialized
// tuple yet (a replay placeholder); it is routed when its data first
// arrives.
const partUnassigned = int32(-1)

// PartitionHash hashes the partition-key columns of a tuple (FNV-64a over a
// canonical value encoding). The same tuple always hashes identically.
func PartitionHash(t Tuple, keyCols []int) uint64 {
	h := fold.New()
	for _, c := range keyCols {
		if c < 0 || c >= len(t) {
			continue
		}
		v := t[c]
		bits := uint64(v.I)
		if v.Kind == catalog.Float64 {
			bits = math.Float64bits(v.F)
		}
		h = h.Byte(byte(v.Kind)).U64(bits).Str(v.S)
	}
	return h.Sum64()
}

// PartitionIndex routes a tuple to one of parts partitions.
func PartitionIndex(t Tuple, keyCols []int, parts int) int {
	if parts <= 1 {
		return 0
	}
	return int(PartitionHash(t, keyCols) % uint64(parts))
}

// SetPartitioning declares the partition-key columns and partition count and
// rebuilds the routing directory. keyCols must name columns whose values
// never change for a live row (primary identifiers). parts < 1 is treated
// as 1 (unpartitioned).
func (t *Table) SetPartitioning(keyCols []int, parts int) {
	if parts < 1 {
		parts = 1
	}
	t.mu.Lock()
	t.partKey = append([]int(nil), keyCols...)
	t.mu.Unlock()
	t.repartition(nil, parts)
}

// Repartition re-routes every row into parts hash partitions, returning the
// number of rows whose partition assignment changed. The rebuild scans every
// slot's newest materialized tuple and writes a fresh directory, which is
// swapped in atomically; rows and version chains are never touched.
func (t *Table) Repartition(th *hw.Thread, parts int) int {
	if parts < 1 {
		parts = 1
	}
	return t.repartition(th, parts)
}

func (t *Table) repartition(th *hw.Thread, parts int) int {
	t.lockPartitions()
	defer t.unlockPartitions()

	t.mu.RLock()
	slots := t.slots
	old := t.partOf
	keyCols := t.partKey
	t.mu.RUnlock()

	dir := make([]int32, len(slots))
	moved := 0
	width := float64(t.Meta.Schema.TupleBytes())
	for i, s := range slots {
		data := s.anyData()
		if data == nil {
			dir[i] = partUnassigned
		} else {
			dir[i] = int32(PartitionIndex(data, keyCols, parts))
		}
		if i < len(old) && old[i] != dir[i] {
			moved++
		}
	}
	if th != nil && len(slots) > 0 {
		n := float64(len(slots))
		th.SeqRead(n, width) // read every row's key
		th.Alloc(n * 4)      // fresh directory
		th.RandWrite(n, n*4) // scatter the assignments
		th.Compute(n * 12)   // hash + modulo per row
		th.Free(float64(len(old)) * 4)
	}

	t.mu.Lock()
	// Rows inserted while the new directory was being computed route
	// themselves under t.mu with the still-old partition count; re-route the
	// tail they appended so directory and count swap together.
	for i := len(dir); i < len(t.slots); i++ {
		data := t.slots[i].anyData()
		if data == nil {
			dir = append(dir, partUnassigned)
		} else {
			dir = append(dir, int32(PartitionIndex(data, keyCols, parts)))
		}
	}
	t.partOf = dir
	t.parts = parts
	t.mu.Unlock()
	return moved
}

// anyData returns any materialized tuple of the slot (the newest non-nil
// version's payload). Partition keys are immutable, so every version of a
// row routes identically; nil means the row never carried data.
func (s *slot) anyData() Tuple {
	s.mu.Lock()
	defer s.mu.Unlock()
	for v := s.head; v != nil; v = v.Next {
		if v.Data != nil {
			return v.Data
		}
	}
	return nil
}

// lockPartitions acquires every per-partition latch in index order (the
// repartition path's exclusion against in-flight partition scans).
func (t *Table) lockPartitions() { t.partScanMu.Lock() }

func (t *Table) unlockPartitions() { t.partScanMu.Unlock() }

// PartitionCount returns the number of hash partitions (1 when the table is
// unpartitioned).
func (t *Table) PartitionCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.parts < 1 {
		return 1
	}
	return t.parts
}

// PartitionKeyCols returns the partition-key column indexes.
func (t *Table) PartitionKeyCols() []int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]int(nil), t.partKey...)
}

// PartitionOfRow returns the row's partition assignment, or -1 when the row
// is out of range or unrouted.
func (t *Table) PartitionOfRow(row RowID) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if int(row) < 0 || int(row) >= len(t.partOf) {
		return -1
	}
	return int(t.partOf[row])
}

// PartitionRowCounts returns the number of routed rows per partition.
func (t *Table) PartitionRowCounts() []int {
	t.mu.RLock()
	slots := t.partOf
	parts := t.parts
	t.mu.RUnlock()
	if parts < 1 {
		parts = 1
	}
	counts := make([]int, parts)
	for _, p := range slots {
		if p >= 0 && int(p) < parts {
			counts[p]++
		}
	}
	return counts
}

// ScanPartition calls fn for every visible row of partition p, in RowID
// order. Charges a per-partition latch acquisition plus a streaming read of
// the partition's stripe, mirroring Scan's accounting.
func (t *Table) ScanPartition(th *hw.Thread, p int, txnID, readTS uint64, fn func(RowID, Tuple) bool) {
	t.ScanPartitionBatch(th, p, txnID, readTS, nil, perRow(fn))
}

// ScanPartitionBatch is the batch variant of ScanPartition, with ScanBatch's
// buffer-reuse contract. With a single partition (p == 0 on an unpartitioned
// table) it degenerates to a full-table batch scan.
func (t *Table) ScanPartitionBatch(th *hw.Thread, p int, txnID, readTS uint64, buf []ScanRow, fn func([]ScanRow) bool) {
	t.partScanMu.RLock()
	defer t.partScanMu.RUnlock()
	slots, dir, _ := t.partitionView()
	t.scanPartition(th, slots, dir, p, txnID, readTS, buf, fn)
}

// PartitionScan visits partition p of the snapshot ScanPartitions took,
// exactly as ScanPartitionBatch does, without taking the latch again.
type PartitionScan func(th *hw.Thread, p int, txnID, readTS uint64, buf []ScanRow, fn func([]ScanRow) bool)

// ScanPartitions runs one partitioned scan under a single hold of the
// partition scan latch, so no Repartition can change the partition count or
// any row's partition between the counts it reports and the scans it runs.
// It calls run once with counts — one entry per partition, counts[p] the
// most rows a scan of partition p can deliver, a hard upper bound — and
// scan. run may call scan from several goroutines, but must not take the
// latch again (no ScanPartition inside run): a second read hold queues
// behind a waiting Repartition, which waits for the first, and deadlocks.
func (t *Table) ScanPartitions(run func(counts []int, scan PartitionScan)) {
	t.partScanMu.RLock()
	defer t.partScanMu.RUnlock()
	slots, dir, parts := t.partitionView()
	counts := []int{len(slots)} // unpartitioned: the one scan visits every slot
	if dir != nil {
		counts = make([]int, parts)
		for _, p := range dir {
			if p >= 0 && int(p) < parts {
				counts[p]++
			}
		}
	}
	run(counts, func(th *hw.Thread, p int, txnID, readTS uint64, buf []ScanRow, fn func([]ScanRow) bool) {
		t.scanPartition(th, slots, dir, p, txnID, readTS, buf, fn)
	})
}

// partitionView snapshots the slots, the routing directory and the
// partition count a partition scan walks; the directory is nil on an
// unpartitioned table. Callers hold partScanMu, which keeps all three
// consistent with each other.
func (t *Table) partitionView() ([]*slot, []int32, int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.parts <= 1 {
		return t.slots, nil, 1
	}
	return t.slots, t.partOf, t.parts
}

// scanPartition charges the partition's scan latch and walks its stripe of
// the snapshot partitionView took.
func (t *Table) scanPartition(th *hw.Thread, slots []*slot, dir []int32, p int, txnID, readTS uint64, buf []ScanRow, fn func([]ScanRow) bool) {
	if th != nil {
		th.Latch(1) // the partition's scan latch
	}
	t.walk(th, slots, dir, p, txnID, readTS, buf, fn)
}

// CheckPartitionInvariants verifies the routing directory's structural
// invariants: the directory covers every slot, every materialized row is
// routed to exactly the partition its key hashes to under the current
// partition count, and unrouted entries carry no data. The concurrency
// harness asserts this per phase alongside the MVCC invariants.
func (t *Table) CheckPartitionInvariants() error {
	t.mu.RLock()
	slots := t.slots
	dir := t.partOf
	parts := t.parts
	keyCols := t.partKey
	t.mu.RUnlock()
	if parts < 1 {
		parts = 1
	}
	if len(dir) != len(slots) {
		return fmt.Errorf("storage: table %q: partition directory has %d entries for %d slots",
			t.Meta.Name, len(dir), len(slots))
	}
	for i, s := range slots {
		data := s.anyData()
		p := dir[i]
		if data == nil {
			// A row that never materialized must stay unrouted; fully
			// tombstoned rows keep their original (valid) assignment.
			if p != partUnassigned && (p < 0 || int(p) >= parts) {
				return fmt.Errorf("storage: table %q row %d: dataless row routed to partition %d of %d",
					t.Meta.Name, i, p, parts)
			}
			continue
		}
		want := int32(PartitionIndex(data, keyCols, parts))
		if p != want {
			return fmt.Errorf("storage: table %q row %d: routed to partition %d, key hashes to %d (of %d)",
				t.Meta.Name, i, p, want, parts)
		}
	}
	return nil
}
