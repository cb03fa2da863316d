package repl

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/server"
	"mb2/internal/storage"
)

// kvFactory builds the replicated schema: one table with a primary-key
// index, so promotion exercises the index rebuild.
func kvFactory() (*engine.DB, error) {
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

// commitKV runs one insert-and-commit transaction through the logged path.
func commitKV(db *engine.DB, k, v int64) error {
	return commitRow(db, "kv", storage.Tuple{storage.NewInt(k), storage.NewInt(v)})
}

// commitRow inserts data into table and commits, through the logged path.
func commitRow(db *engine.DB, table string, data storage.Tuple) error {
	tbl := db.Table(table)
	tx := db.Txns.Begin(nil)
	if _, err := db.Insert(tx, nil, tbl, data, 1); err != nil {
		return err
	}
	_, err := db.CommitLogged(tx, nil, nil)
	return err
}

// shipRun drives txns committed transactions on a fresh primary, flushing
// and syncing the group every flushEvery commits, checkpointing once after
// ckptAfter commits (0 disables). It returns the primary.
func shipRun(t *testing.T, g func(db *engine.DB) *Group, txns, flushEvery, ckptAfter int) (*engine.DB, *Group) {
	t.Helper()
	db, err := kvFactory()
	if err != nil {
		t.Fatal(err)
	}
	grp := g(db)
	for i := 0; i < txns; i++ {
		if err := commitKV(db, int64(i), int64(i*7)); err != nil {
			t.Fatal(err)
		}
		if (i+1)%flushEvery == 0 {
			db.WAL.Serialize(nil)
			if _, err := db.WAL.Flush(nil); err != nil {
				t.Fatal(err)
			}
			if err := grp.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		if ckptAfter > 0 && i+1 == ckptAfter {
			if _, err := db.Checkpoint(nil); err != nil {
				t.Fatal(err)
			}
			if err := grp.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	db.WAL.Serialize(nil)
	if _, err := db.WAL.Flush(nil); err != nil {
		t.Fatal(err)
	}
	// Two final syncs so every cadence-lagged replica receives the tail.
	if err := grp.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := grp.Sync(); err != nil {
		t.Fatal(err)
	}
	return db, grp
}

// stateDigest renders the committed kv rows at the engine's last commit
// timestamp into an order-independent digest.
func stateDigest(t testing.TB, db *engine.DB) uint64 {
	t.Helper()
	tbl := db.Table("kv")
	ts := db.Txns.LastCommitTS()
	h := fnv.New64a()
	tbl.Scan(nil, 0, ts, func(row storage.RowID, data storage.Tuple) bool {
		fmt.Fprintf(h, "%d=%d,%d;", row, data[0].I, data[1].I)
		return true
	})
	return h.Sum64()
}

func TestGroupShipsAppliesAndPromotes(t *testing.T) {
	cfg := GroupConfig{Replicas: 3, Cadence: []int{1, 2, 1}, ApplyEvery: []int{1, 1, 4}}
	db, grp := shipRun(t, func(db *engine.DB) *Group {
		g, err := NewGroup(db, kvFactory, server.NewPipe(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}, 20, 3, 0)
	defer grp.Close()

	commits := db.Txns.LastCommitTS()
	if commits != 20 {
		t.Fatalf("primary committed %d, want 20", commits)
	}
	sts := grp.Status()
	// Every replica received the whole durable image after the final syncs.
	for _, st := range sts {
		if st.ReceivedBytes != len(db.WAL.Durable()) {
			t.Fatalf("replica %d received %d of %d durable bytes", st.ID, st.ReceivedBytes, len(db.WAL.Durable()))
		}
		if st.ReceivedCommits != commits {
			t.Fatalf("replica %d received %d commits, want %d", st.ID, st.ReceivedCommits, commits)
		}
	}
	// Eager replicas are fully applied; the lazy one has a real backlog.
	if sts[0].AppliedCommits != commits || sts[0].PendingCommits != 0 {
		t.Fatalf("eager replica 0: %+v", sts[0])
	}
	if sts[2].PendingCommits == 0 || sts[2].PendingRecords == 0 || sts[2].PendingBytes == 0 {
		t.Fatalf("lazy replica 2 has no backlog: %+v", sts[2])
	}
	// Receive and apply work was charged to the replicas' own threads, and
	// the lazy replica — having applied less — is cheaper so far.
	if sts[0].Metrics.ElapsedUS <= 0 || sts[2].Metrics.ElapsedUS <= 0 {
		t.Fatalf("uncharged replica threads: %v vs %v", sts[0].Metrics.ElapsedUS, sts[2].Metrics.ElapsedUS)
	}
	if sts[2].Metrics.ElapsedUS >= sts[0].Metrics.ElapsedUS {
		t.Fatalf("lazy replica charged %v us, eager %v us", sts[2].Metrics.ElapsedUS, sts[0].Metrics.ElapsedUS)
	}
	if acks := grp.AckedCommits(); acks[0] != commits || acks[2] >= commits {
		t.Fatalf("primary-side ack view: %v", acks)
	}

	// Promote the lazy replica: the backlog replays, indexes rebuild, a
	// checkpoint establishes the new primary, and the state matches.
	if err := grp.Close(); err != nil {
		t.Fatal(err)
	}
	rep := grp.Replicas()[2]
	ps, err := rep.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if ps.Commits != commits || ps.AppliedRecords == 0 {
		t.Fatalf("promotion: %+v", ps)
	}
	if ps.IndexesRebuilt != 1 || ps.IndexRows != 20 {
		t.Fatalf("index rebuild: %+v", ps)
	}
	if ps.Checkpoint.Rows != 20 {
		t.Fatalf("establishing checkpoint: %+v", ps.Checkpoint)
	}
	if ps.Elapsed.ElapsedUS <= 0 {
		t.Fatal("promotion cost not charged")
	}
	if got, want := stateDigest(t, rep.DB()), stateDigest(t, db); got != want {
		t.Fatalf("promoted state digest %#x, primary %#x", got, want)
	}
	if _, err := rep.Promote(); err == nil {
		t.Fatal("second promotion must fail")
	}
}

// A primary checkpoint truncates the log and opens a new epoch: the next
// sync must re-seed every replica from the checkpoint image, after which
// shipping continues on the new segment.
func TestGroupReseedsAcrossCheckpoint(t *testing.T) {
	cfg := GroupConfig{Replicas: 2, ApplyEvery: []int{1, 3}}
	db, grp := shipRun(t, func(db *engine.DB) *Group {
		g, err := NewGroup(db, kvFactory, server.NewPipe(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}, 18, 2, 8)
	defer grp.Close()

	commits := db.Txns.LastCommitTS()
	for _, st := range grp.Status() {
		if st.Reseeds != 1 {
			t.Fatalf("replica %d reseeded %d times, want 1", st.ID, st.Reseeds)
		}
		if st.Epoch != db.WAL.Epoch() {
			t.Fatalf("replica %d at epoch %d, primary %d", st.ID, st.Epoch, db.WAL.Epoch())
		}
		if st.ReceivedCommits != commits {
			t.Fatalf("replica %d received %d commits, want %d", st.ID, st.ReceivedCommits, commits)
		}
	}
	if err := grp.Close(); err != nil {
		t.Fatal(err)
	}
	for _, rep := range grp.Replicas() {
		ps, err := rep.Promote()
		if err != nil {
			t.Fatal(err)
		}
		if ps.Commits != commits {
			t.Fatalf("replica %d promoted at %d commits, want %d", rep.ID, ps.Commits, commits)
		}
		if got, want := stateDigest(t, rep.DB()), stateDigest(t, db); got != want {
			t.Fatalf("replica %d state digest %#x, primary %#x", rep.ID, got, want)
		}
	}
}

// The whole ship/apply/promote pipeline is deterministic: two identical
// pipe runs and a TCP run produce bit-identical replica staleness and
// promoted state.
func TestGroupDeterministicAcrossRunsAndTransports(t *testing.T) {
	run := func(tr func() server.Transport) (statuses []Status, promoted uint64) {
		cfg := GroupConfig{Replicas: 2, Cadence: []int{1, 2}, ApplyEvery: []int{1, 3}}
		db, grp := shipRun(t, func(db *engine.DB) *Group {
			g, err := NewGroup(db, kvFactory, tr(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}, 16, 3, 7)
		defer grp.Close()
		statuses = grp.Status()
		if err := grp.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := grp.Replicas()[1].Promote(); err != nil {
			t.Fatal(err)
		}
		_ = db
		return statuses, stateDigest(t, grp.Replicas()[1].DB())
	}

	s1, p1 := run(func() server.Transport { return server.NewPipe() })
	s2, p2 := run(func() server.Transport { return server.NewPipe() })
	s3, p3 := run(func() server.Transport { return server.NewTCP("127.0.0.1:0") })
	if p1 != p2 || p1 != p3 {
		t.Fatalf("promoted digests diverge: %#x %#x %#x", p1, p2, p3)
	}
	for i := range s1 {
		if s1[i] != s2[i] || s1[i] != s3[i] {
			t.Fatalf("replica %d status diverges:\npipe1 %+v\npipe2 %+v\ntcp   %+v", i, s1[i], s2[i], s3[i])
		}
	}
}

// PickPromotion is an argmin over the caller's price: the cheapest replica
// wins, exact ties and an all-+Inf slate go to the lowest index, and a
// pricing error or an empty slate fails.
func TestPickPromotion(t *testing.T) {
	sts := []Status{{ID: 0, PendingBytes: 30}, {ID: 1, PendingBytes: 10}, {ID: 2, PendingBytes: 10}}
	backlog := func(st Status) (float64, error) { return float64(st.PendingBytes), nil }
	if got, err := PickPromotion(sts, backlog); err != nil || got != 1 {
		t.Fatalf("least backlog: picked %d (%v), want 1", got, err)
	}
	fixed := func(Status) (float64, error) { return 0, nil }
	if got, _ := PickPromotion(sts, fixed); got != 0 {
		t.Fatalf("constant price: picked %d, want 0", got)
	}
	inf := func(Status) (float64, error) { return math.Inf(1), nil }
	if got, _ := PickPromotion(sts, inf); got != 0 {
		t.Fatalf("all +Inf: picked %d, want 0", got)
	}
	failing := func(st Status) (float64, error) { return 0, fmt.Errorf("no model for %d", st.ID) }
	if _, err := PickPromotion(sts, failing); err == nil {
		t.Fatal("a pricing error must fail the pick")
	}
	if _, err := PickPromotion(nil, backlog); err == nil {
		t.Fatal("an empty slate must fail")
	}
}
