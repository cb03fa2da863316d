package check

import (
	"fmt"

	"mb2/internal/storage"
	"mb2/internal/workload"
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

// checkPartitions validates the hash-partitioning layer of every table at
// the latest snapshot, and that each table has the partition count the
// config asks for.
func (h *harness) checkPartitions() error {
	h.checks.Add(1)
	readTS := h.db.Txns.LastCommitTS()
	for _, tbl := range h.tables() {
		if err := checkPartitionScan(tbl, readTS); err != nil {
			return err
		}
		parts := tbl.PartitionCount()
		if want := h.cfg.Partitions; want > 1 && parts != want {
			return fmt.Errorf("table %s has %d partitions, config wants %d", tbl.Meta.Name, parts, want)
		}
	}
	return nil
}

// checkPartitionScan requires the routing directory's structural invariants
// to hold and the merged per-partition scan streams at readTS to expose
// exactly the global scan's visible rows — every row surfacing in precisely
// the one partition the directory routes it to, with identical tuples. On
// an unpartitioned table this degenerates to scan self-consistency.
func checkPartitionScan(tbl *storage.Table, readTS uint64) error {
	if err := tbl.CheckPartitionInvariants(); err != nil {
		return err
	}
	global := make(map[storage.RowID]string)
	tbl.Scan(nil, 0, readTS, func(row storage.RowID, data storage.Tuple) bool {
		global[row] = workload.RenderTuple(data)
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
					merged[r.Row] = workload.RenderTuple(r.Data)
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
	before := workload.CaptureState(h.tables(), snapTS)
	if err := h.maint.Pass(); err != nil {
		return fmt.Errorf("maintenance pass: %w", err)
	}
	if err := workload.CaptureState(h.tables(), snapTS).Diff(before); err != nil {
		return fmt.Errorf("GC changed the state visible at snapshot %d: %w", snapTS, err)
	}
	oldest := h.db.Txns.OldestActiveTS()
	for _, tbl := range h.tables() {
		if err := tbl.CheckVacuumed(oldest); err != nil {
			return err
		}
	}
	return nil
}

// checkWALReplay makes the log durable with a maintenance pass and recovers
// the durable image, through engine.DB.RecoverImages, onto a fresh engine
// opened from the same schema under the same knobs. The recovered engine
// must hold every commit and expose exactly the live committed state, and
// its version chains, partition routing and rebuilt indexes must pass the
// same checks as the live engine's.
func (h *harness) checkWALReplay() error {
	h.checks.Add(1)
	if err := h.maint.Pass(); err != nil {
		return fmt.Errorf("maintenance pass: %w", err)
	}
	fresh, tables, err := workload.SmallBank{}.Schema().Open(h.db.Knobs(), nil, nil)
	if err != nil {
		return err
	}
	st, err := fresh.RecoverImages(nil, nil, h.db.WAL.Durable())
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	last := h.db.Txns.LastCommitTS()
	if st.TornTail || st.Committed != last {
		return fmt.Errorf("recovered %d commits (torn tail: %t), live engine committed %d", st.Committed, st.TornTail, last)
	}
	if err := workload.CaptureState(tables, last).Diff(workload.CaptureState(h.tables(), last)); err != nil {
		return fmt.Errorf("recovered state: %w", err)
	}
	for _, tbl := range tables {
		if err := tbl.CheckInvariants(nil); err != nil {
			return fmt.Errorf("recovered %s: %w", tbl.Meta.Name, err)
		}
		if err := checkPartitionScan(tbl, last); err != nil {
			return fmt.Errorf("recovered %s: %w", tbl.Meta.Name, err)
		}
	}
	if err := fresh.CheckIndexes(); err != nil {
		return fmt.Errorf("recovered index: %w", err)
	}
	return nil
}
