package check

import (
	"fmt"

	"mb2/internal/storage"
	"mb2/internal/wal"
)

// checkAll runs the four invariant families at a quiesce point (no active
// transactions, workers joined, maintenance goroutine stopped). Any failure
// is tagged with the seed via fail, so the run can be replayed.
func (h *harness) checkAll(phase int) error {
	if err := h.checkQuiesce(); err != nil {
		return h.fail(phase, "quiesce", err)
	}
	if err := h.checkStorage(); err != nil {
		return h.fail(phase, "mvcc", err)
	}
	if err := h.checkPartitions(); err != nil {
		return h.fail(phase, "partition", err)
	}
	if err := h.checkConservation(); err != nil {
		return h.fail(phase, "conservation", err)
	}
	h.checks.Add(1) // the engine's exact index↔table check
	if err := h.db.CheckIndexes(); err != nil {
		return h.fail(phase, "index", err)
	}
	if err := h.checkGC(); err != nil {
		return h.fail(phase, "gc", err)
	}
	if err := h.checkWALReplay(); err != nil {
		return h.fail(phase, "wal-replay", err)
	}
	return nil
}

// checkQuiesce verifies the transaction manager is fully drained: nothing
// active, and every allocated commit timestamp published.
func (h *harness) checkQuiesce() error {
	h.checks.Add(1)
	if n := h.db.Txns.ActiveCount(); n != 0 {
		return fmt.Errorf("%d transactions still active", n)
	}
	if alloc, committed := h.db.Txns.LastAllocatedTS(), h.db.Txns.LastCommitTS(); alloc != committed {
		return fmt.Errorf("allocated ts %d ahead of published ts %d (commit mid-publication)", alloc, committed)
	}
	return nil
}

// checkStorage validates every version chain: no uncommitted versions at
// quiesce, committed timestamps strictly decreasing along each chain.
func (h *harness) checkStorage() error {
	h.checks.Add(1)
	for _, tbl := range h.tables() {
		if err := tbl.CheckInvariants(nil); err != nil {
			return err
		}
	}
	return nil
}

// checkPartitions validates the hash-partitioning layer of every table:
// the routing directory's structural invariants hold, and the merged
// per-partition scan streams expose exactly the global scan's visible rows
// — every row surfacing in precisely the one partition the directory
// routes it to, with identical tuples. On an unpartitioned table this
// degenerates to scan self-consistency.
func (h *harness) checkPartitions() error {
	h.checks.Add(1)
	readTS := h.db.Txns.LastCommitTS()
	for _, tbl := range h.tables() {
		if err := tbl.CheckPartitionInvariants(); err != nil {
			return err
		}
		parts := tbl.PartitionCount()
		if want := h.cfg.Partitions; want > 1 && parts != want {
			return fmt.Errorf("table %s has %d partitions, config wants %d", tbl.Meta.Name, parts, want)
		}
		global := make(map[storage.RowID]string)
		tbl.Scan(nil, 0, readTS, func(row storage.RowID, data storage.Tuple) bool {
			global[row] = renderTuple(data)
			return true
		})
		merged := make(map[storage.RowID]string, len(global))
		var perr error
		tbl.ScanPartitions(func(counts []int, scan storage.PartitionScan) {
			for p := 0; p < len(counts) && perr == nil; p++ {
				scan(nil, p, 0, readTS, nil, func(rows []storage.ScanRow) bool {
					for _, r := range rows {
						if q := tbl.PartitionOfRow(r.Row); q != p {
							perr = fmt.Errorf("table %s row %d surfaced by partition %d but routed to %d",
								tbl.Meta.Name, r.Row, p, q)
							return false
						}
						if _, dup := merged[r.Row]; dup {
							perr = fmt.Errorf("table %s row %d surfaced by two partition scans", tbl.Meta.Name, r.Row)
							return false
						}
						merged[r.Row] = renderTuple(r.Data)
					}
					return true
				})
			}
		})
		if perr != nil {
			return perr
		}
		for row, want := range global {
			got, ok := merged[row]
			if !ok {
				return fmt.Errorf("table %s row %d visible globally but in no partition stripe", tbl.Meta.Name, row)
			}
			if got != want {
				return fmt.Errorf("table %s row %d: partition scan read %q, global scan %q", tbl.Meta.Name, row, got, want)
			}
		}
		for row := range merged {
			if _, ok := global[row]; !ok {
				return fmt.Errorf("table %s row %d visible in a partition stripe but not globally", tbl.Meta.Name, row)
			}
		}
	}
	return nil
}

// checkConservation compares the committed balance total at the latest
// snapshot against the commit ledger: every committed delta and nothing
// else. Lost updates, dirty writes, and half-applied commits all break it.
func (h *harness) checkConservation() error {
	h.checks.Add(1)
	readTS := h.db.Txns.LastCommitTS()
	scanned := h.balanceSum(0, readTS)
	expected := h.ledgerSum(storage.MaxTS)
	if !approxEq(scanned, expected) {
		return fmt.Errorf("committed balances at ts %d sum to %.2f, ledger expects %.2f", readTS, scanned, expected)
	}
	return nil
}

// checkGC captures everything visible at the latest snapshot, runs a
// maintenance pass, and requires the visible state to be untouched — GC may
// only prune versions no live snapshot can reach. It then verifies chains
// are actually pruned below the oldest active timestamp.
func (h *harness) checkGC() error {
	h.checks.Add(1)
	snapTS := h.db.Txns.LastCommitTS()
	before := captureState(h.tables(), snapTS)
	if err := h.maint.Pass(); err != nil {
		return fmt.Errorf("maintenance pass: %w", err)
	}
	after := captureState(h.tables(), snapTS)
	for k, v := range before {
		got, ok := after[k]
		if !ok {
			return fmt.Errorf("GC pruned reachable tuple %s (was %q) at snapshot %d", k, v, snapTS)
		}
		if got != v {
			return fmt.Errorf("GC changed visible tuple %s at snapshot %d: %q -> %q", k, snapTS, v, got)
		}
	}
	for k := range after {
		if _, ok := before[k]; !ok {
			return fmt.Errorf("GC resurrected tuple %s at snapshot %d", k, snapTS)
		}
	}
	oldest := h.db.Txns.OldestActiveTS()
	for _, tbl := range h.tables() {
		if err := tbl.CheckVacuumed(oldest); err != nil {
			return err
		}
	}
	return nil
}

// checkWALReplay makes the log durable with a maintenance pass and replays
// the durable image into fresh tables, requiring the replayed committed
// state to match the live tables row for row (and itself satisfy the
// storage invariants).
func (h *harness) checkWALReplay() error {
	h.checks.Add(1)
	if err := h.maint.Pass(); err != nil {
		return fmt.Errorf("maintenance pass: %w", err)
	}
	_, body, torn, err := wal.ParseSegment(h.db.WAL.Durable())
	if err != nil || torn {
		return fmt.Errorf("durable log segment corrupt (torn=%v): %w", torn, err)
	}
	records, err := wal.Deserialize(body)
	if err != nil {
		return fmt.Errorf("durable log image corrupt: %w", err)
	}
	fresh := make(map[int32]*storage.Table, 3)
	for _, tbl := range h.tables() {
		ft := storage.NewTable(tbl.Meta)
		ft.SetPartitioning(tbl.PartitionKeyCols(), tbl.PartitionCount())
		fresh[int32(tbl.Meta.ID)] = ft
	}
	if _, err := wal.Replay(records, fresh); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	for _, live := range h.tables() {
		replayed := fresh[int32(live.Meta.ID)]
		if err := compareTables(live, replayed); err != nil {
			return err
		}
		if err := replayed.CheckInvariants(nil); err != nil {
			return fmt.Errorf("replayed %s: %w", live.Meta.Name, err)
		}
		if err := replayed.CheckPartitionInvariants(); err != nil {
			return fmt.Errorf("replayed %s: %w", live.Meta.Name, err)
		}
	}
	return nil
}

// compareTables requires the replayed table to expose exactly the live
// table's committed state: same visible rows, same tuples. Replay may leave
// fewer slots (rows only ever touched by aborted transactions are not in
// the log), and those missing slots must be invisible in the live table too
// — which the row loop enforces, since reading past the replayed slot array
// yields not-visible.
func compareTables(live, replayed *storage.Table) error {
	if replayed.NumRows() > live.NumRows() {
		return fmt.Errorf("replay of %s created %d rows, live table has %d",
			live.Meta.Name, replayed.NumRows(), live.NumRows())
	}
	for row := 0; row < live.NumRows(); row++ {
		lt, lerr := live.Read(nil, storage.RowID(row), 0, storage.MaxTS)
		rt, rerr := replayed.Read(nil, storage.RowID(row), 0, storage.MaxTS)
		lok, rok := lerr == nil, rerr == nil
		if lok != rok {
			return fmt.Errorf("%s row %d: live visible=%t, replayed visible=%t",
				live.Meta.Name, row, lok, rok)
		}
		if !lok {
			continue
		}
		if len(lt) != len(rt) {
			return fmt.Errorf("%s row %d: live has %d columns, replayed %d",
				live.Meta.Name, row, len(lt), len(rt))
		}
		for i := range lt {
			if !lt[i].Equal(rt[i]) {
				return fmt.Errorf("%s row %d col %d: live %s, replayed %s",
					live.Meta.Name, row, i, lt[i], rt[i])
			}
		}
	}
	return nil
}
