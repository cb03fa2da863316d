package main

import (
	"fmt"
	"math/rand"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/exec"
	"mb2/internal/fold"
	"mb2/internal/repl"
	"mb2/internal/server"
	"mb2/internal/storage"
)

// replDB builds the replicated schema: one kv table with a primary-key
// index, so promotion exercises the index rebuild.
func replDB() (*engine.DB, error) {
	db := engine.OpenOnDevices(catalog.DefaultKnobs(), nil, nil)
	sch := catalog.NewSchema(
		catalog.Column{Name: "k", Type: catalog.Int64},
		catalog.Column{Name: "v", Type: catalog.Int64},
	)
	if _, err := db.CreateTable("kv", sch); err != nil {
		return nil, err
	}
	if _, _, err := db.CreateIndex(nil, db.Machine.CPU, "kv_pk", "kv",
		[]string{"k"}, true, 1); err != nil {
		return nil, err
	}
	return db, nil
}

// replCommit runs one insert-and-commit transaction through the logged path.
func replCommit(db *engine.DB, k, v int64) error {
	tbl := db.Table("kv")
	tx := db.Txns.Begin(nil)
	data := storage.Tuple{storage.NewInt(k), storage.NewInt(v)}
	if _, err := db.Insert(tx, nil, tbl, data, 1); err != nil {
		return err
	}
	_, err := db.CommitLogged(tx, nil, nil)
	return err
}

// replStateDigest folds the committed kv rows at the engine's last commit
// timestamp into an order-independent digest.
func replStateDigest(db *engine.DB) uint64 {
	tbl := db.Table("kv")
	h := fold.New()
	tbl.Scan(nil, 0, db.Txns.LastCommitTS(), func(row storage.RowID, data storage.Tuple) bool {
		fmt.Fprintf(&h, "%d=%d,%d;", row, data[0].I, data[1].I)
		return true
	})
	return h.Sum64()
}

// replRun drives one seeded primary shipping to `replicas` staggered
// replicas over the in-process transport, then promotes the least-stale one
// and returns its state digest.
func replRun(replicas, txns int, seed int64, report bool) (uint64, error) {
	db, err := replDB()
	if err != nil {
		return 0, err
	}
	cfg := repl.GroupConfig{Replicas: replicas}
	// Stagger apply laziness so the status table shows real backlogs:
	// replica i applies every i+1 ships.
	for i := 0; i < replicas; i++ {
		cfg.ApplyEvery = append(cfg.ApplyEvery, i+1)
	}
	grp, err := repl.NewGroup(db, replDB, server.NewPipe(), cfg)
	if err != nil {
		return 0, err
	}
	defer grp.Close()

	// Every third commit, and once at the end, a maintenance pass flushes
	// the log and ships it.
	m := exec.NewMaintainer(db, 3, grp.Sync)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < txns; i++ {
		if err := replCommit(db, int64(i), rng.Int63n(1_000_000)); err != nil {
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
	least := 0
	for i, st := range sts {
		if st.PendingBytes < sts[least].PendingBytes {
			least = i
		}
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
	digest := replStateDigest(rep.DB())
	if report {
		fmt.Printf("\npromoted replica %d (least stale): %d commits, %d records replayed, %d indexes rebuilt, %.1f us\n",
			least, ps.Commits, ps.AppliedRecords, ps.IndexesRebuilt, ps.Elapsed.ElapsedUS)
		fmt.Printf("promoted state digest: %#x (primary %#x)\n", digest, replStateDigest(db))
	}
	if got, want := digest, replStateDigest(db); got != want {
		return 0, fmt.Errorf("promoted state digest %#x diverges from primary %#x", got, want)
	}
	if ps.Commits != db.Txns.LastCommitTS() {
		return 0, fmt.Errorf("promoted replica at %d commits, primary at %d", ps.Commits, db.Txns.LastCommitTS())
	}
	return digest, nil
}

// runRepl stands up a log-shipping replication group behind a seeded
// committed workload, prints per-replica staleness, promotes the
// least-stale replica, and verifies the promoted state against the primary.
// With verify, a full re-run must reproduce the promoted digest bit for
// bit.
func runRepl(replicas, txns int, seed int64, verify bool) error {
	if txns < 1 {
		return fmt.Errorf("-txns %d: a replication run ships at least one transaction", txns)
	}
	fmt.Printf("== log-shipping replication (seed %d, %d txns, %d replicas, in-proc transport) ==\n",
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
