package main

import (
	"fmt"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/exec"
	"mb2/internal/repl"
	"mb2/internal/server"
	"mb2/internal/storage"
	"mb2/internal/workload"
)

// replRun drives workload.SmallBank's seeded serial stream on a primary
// shipping to `replicas` staggered replicas over the in-process transport,
// then promotes the least-stale one. The promoted state must equal the
// stream's oracle at the commits the replica received — and, since every
// replica received the whole log, the primary's state. It returns the
// promoted state's digest.
func replRun(replicas, txns int, seed int64, report bool) (uint64, error) {
	stream := workload.SmallBank{}.Stream(seed, txns)
	open := func() (*engine.DB, []*storage.Table, error) {
		return stream.Schema.Open(catalog.DefaultKnobs(), nil, nil)
	}
	db, tables, err := open()
	if err != nil {
		return 0, err
	}
	cfg := repl.GroupConfig{Replicas: replicas}
	// Stagger apply laziness so the status table shows real backlogs:
	// replica i applies every i+1 ships.
	for i := 0; i < replicas; i++ {
		cfg.ApplyEvery = append(cfg.ApplyEvery, i+1)
	}
	grp, err := repl.NewGroup(db, func() (*engine.DB, error) {
		rdb, _, err := open()
		return rdb, err
	}, server.NewPipe(), cfg)
	if err != nil {
		return 0, err
	}
	defer grp.Close()

	// Every third transaction, committed or aborted, and once at the end, a
	// maintenance pass flushes the log and ships it.
	m := exec.NewMaintainer(db, 3, grp.Sync)
	for _, ct := range stream.Txns {
		if err := workload.Apply(db, tables, ct); err != nil {
			return 0, err
		}
		if err := m.Finished(); err != nil {
			return 0, err
		}
	}
	if err := m.Pass(); err != nil {
		return 0, err
	}

	sts := grp.Status()
	least, err := repl.PickPromotion(sts, func(st repl.Status) (float64, error) { return float64(st.PendingBytes), nil })
	if err != nil {
		return 0, err
	}
	if report {
		fmt.Println("\n replica  epoch  recv bytes  recv commits  applied  pending bytes  replay us")
		for _, st := range sts {
			fmt.Printf("   %3d    %3d    %8d      %8d   %6d       %8d   %8.1f\n",
				st.ID, st.Epoch, st.ReceivedBytes, st.ReceivedCommits,
				st.AppliedCommits, st.PendingBytes, st.Metrics.ElapsedUS)
		}
	}
	if err := grp.Close(); err != nil {
		return 0, err
	}
	rep := grp.Replicas()[least]
	ps, err := rep.Promote()
	if err != nil {
		return 0, err
	}

	// The promoted node must expose exactly the commits it received: the
	// oracle state at k, the commit timestamp k, rebuilt indexes agreeing
	// with visibility.
	k := sts[least].ReceivedCommits
	ndb := rep.DB()
	if got := ndb.Txns.LastCommitTS(); got != k {
		return 0, fmt.Errorf("promoted commit ts %d, oracle expects %d", got, k)
	}
	ntables := make([]*storage.Table, len(stream.Schema.Tables))
	for i, t := range stream.Schema.Tables {
		ntables[i] = ndb.Table(t.Name)
	}
	state := workload.CaptureState(ntables, k)
	if err := state.Diff(stream.ModelAfter(k)); err != nil {
		return 0, fmt.Errorf("promoted state diverges from the oracle: %w", err)
	}
	if err := ndb.CheckIndexes(); err != nil {
		return 0, fmt.Errorf("promoted replica's rebuilt index: %w", err)
	}
	digest := state.Digest()
	primary := workload.CaptureState(tables, db.Txns.LastCommitTS()).Digest()
	if report {
		fmt.Printf("\npromoted replica %d (least stale): %d commits, %d records replayed, %d indexes rebuilt, %.1f us\n",
			least, ps.Commits, ps.AppliedRecords, ps.IndexesRebuilt, ps.Elapsed.ElapsedUS)
		fmt.Printf("promoted state digest: %#x (oracle at %d commits; primary %#x)\n", digest, k, primary)
	}
	if digest != primary {
		return 0, fmt.Errorf("promoted state digest %#x diverges from primary %#x", digest, primary)
	}
	return digest, nil
}

// runRepl stands up a log-shipping replication group behind SmallBank's
// seeded transaction stream, prints per-replica staleness, promotes the
// least-stale replica, and verifies the promoted state against the
// stream's oracle and the primary. With verify, a full re-run must
// reproduce the promoted digest bit for bit.
func runRepl(replicas, txns int, seed int64, verify bool) error {
	if txns < 1 {
		return fmt.Errorf("-txns %d: a replication run ships at least one transaction", txns)
	}
	fmt.Printf("== log-shipping replication (seed %d, %d SmallBank txns, %d replicas, in-proc transport) ==\n",
		seed, txns, replicas)
	digest, err := replRun(replicas, txns, seed, true)
	if err != nil {
		return err
	}
	if verify {
		replay, err := replRun(replicas, txns, seed, false)
		if err != nil {
			return fmt.Errorf("verify replay: %w", err)
		}
		if replay != digest {
			return fmt.Errorf("verify FAILED: replay promoted digest %#x vs %#x", replay, digest)
		}
		fmt.Printf("\nverify: replay reproduced promoted digest %#x\n", digest)
	}
	return nil
}
