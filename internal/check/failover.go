package check

import (
	"bytes"
	"fmt"
	"math"

	"mb2/internal/engine"
	"mb2/internal/fold"
	"mb2/internal/hw"
	"mb2/internal/modeling"
	"mb2/internal/par"
	"mb2/internal/repl"
	"mb2/internal/server"
	"mb2/internal/storage"
	"mb2/internal/workload"
)

// This file implements the deterministic failover drill. The crash harness's
// seeded workload runs on a primary whose WAL sits on a FaultDevice armed to
// tear the write stream at one byte offset, while a replication group ships
// every flushed suffix to N replicas over an in-process transport. When the
// primary dies, the drill promotes one replica — by fixed policy or by
// predicted recovery time — and holds the promoted state to the same oracle
// the crash sweep uses: exactly the transactions whose commit records the
// replica had received, no lost commit, no ghost write. Sweeping the offset
// turns "does failover work" into a property checked at every kill point,
// and the whole sweep folds into one digest that must be bit-identical at
// any worker count.

// FailoverConfig parameterizes one failover drill sweep. Zero values select
// defaults sized for a quick deterministic run.
type FailoverConfig struct {
	Seed int64
	// Workload is "smallbank" (default) or "tatp".
	Workload string
	// Txns is the number of generated transactions (default 40).
	Txns int
	// Stride is the kill-offset step over the golden durable log image
	// (default 1: every byte). The final full-image offset — a planned
	// failover with no crash — is always drilled.
	Stride int
	// FlushEvery is how many transactions share one serialize+flush+ship
	// cycle (default 3).
	FlushEvery int
	// CheckpointAfter, when > 0, checkpoints the primary once this many
	// transactions have committed; the next ship re-seeds every replica
	// from the checkpoint image.
	CheckpointAfter int
	// Replicas is the group size (default 2). Cadence and ApplyEvery pass
	// through to the group per replica, so replicas can lag by different
	// amounts and the promotion choice is non-trivial.
	Replicas   int
	Cadence    []int
	ApplyEvery []int
	// Jobs bounds the sweep's worker pool (<= 0: GOMAXPROCS). The report
	// is bit-identical at every setting.
	Jobs int
	// Policy picks the promotion target: "fixed" (default, replica 0) or
	// "predicted" (cheapest predicted recovery; requires Predict).
	Policy string
	// Predict prices one node's recovery in predicted microseconds.
	// Callers with a trained ModelSet pass
	// ms.PredictQuery(tr.TranslateRecovery(e)); tests may pass any
	// deterministic function.
	Predict func(e modeling.RecoveryEstimate) (float64, error)
}

// FailoverReport summarizes a successful drill sweep.
type FailoverReport struct {
	Seed     int64
	Workload string
	Policy   string
	Replicas int
	Txns     int    // transactions executed per drill run
	Commits  uint64 // committed transactions in the golden run
	LogBytes int    // golden durable log size swept
	Offsets  int    // kill offsets drilled
	Crashes  int    // offsets where the primary actually died mid-run
	// Checkpointed reports whether the runs checkpointed (and re-seeded).
	Checkpointed bool
	// MeanFailoverUS/MaxFailoverUS summarize the promoted replicas'
	// measured recovery cost (replay + index rebuild + establishing
	// checkpoint, on the replica's own thread).
	MeanFailoverUS float64
	MaxFailoverUS  float64
	// MeanPendingBytes is the promoted replicas' mean replay backlog.
	MeanPendingBytes float64
	// Promotions counts how often each replica was chosen.
	Promotions []int
	// Digest folds every drill's (offset, choice, commits, state, cost) in
	// offset order: the determinism witness.
	Digest uint64
}

// drillResult is one kill offset's outcome.
type drillResult struct {
	crashed      bool
	chosen       int
	commits      uint64
	stateDigest  uint64
	failoverUS   float64
	pendingBytes int
}

// estimateFromStatus converts a replica's exact staleness counters into the
// planner's recovery-estimate feature space. The rebuild and checkpoint
// terms are priced post-replay — promotion applies the backlog first, so
// pending records count as future heap rows (an upper bound: updates and
// deletes replay as version writes too). Without this, a lagging replica's
// smaller applied heap would make it look like the cheaper promotion
// target, which is exactly backwards.
func estimateFromStatus(st repl.Status, tupleBytes float64) modeling.RecoveryEstimate {
	return modeling.RecoveryEstimate{
		PendingRecords: float64(st.PendingRecords),
		PendingCommits: float64(st.PendingCommits),
		PendingBytes:   float64(st.PendingBytes),
		Rows:           float64(st.Rows + st.PendingRecords),
		Indexes:        float64(st.Indexes),
		KeyBytes:       float64(st.IndexKeyBytes + st.PendingRecords*8*st.Indexes),
		TupleBytes:     tupleBytes,
	}
}

// RunFailover executes one failover drill sweep: a golden run fixes the
// durable log image, then every kill offset re-runs the workload against a
// primary armed to crash there, ships to a fresh replica group, promotes one
// replica per the policy, and verifies the promoted state against the
// commit oracle. Any violation comes back tagged with the seed, workload,
// and offset needed to replay it.
func RunFailover(cfg FailoverConfig) (*FailoverReport, error) {
	if cfg.Txns <= 0 {
		cfg.Txns = 40
	}
	if cfg.Stride <= 0 {
		cfg.Stride = 1
	}
	if cfg.FlushEvery <= 0 {
		cfg.FlushEvery = 3
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	switch cfg.Policy {
	case "":
		cfg.Policy = "fixed"
	case "fixed":
	case "predicted":
		if cfg.Predict == nil {
			return nil, fmt.Errorf("failover: policy %q needs a Predict function", cfg.Policy)
		}
	default:
		return nil, fmt.Errorf("failover: unknown policy %q", cfg.Policy)
	}
	crashCfg := CrashConfig{
		Seed: cfg.Seed, Workload: cfg.Workload, Txns: cfg.Txns,
		FlushEvery: cfg.FlushEvery, CheckpointAfter: cfg.CheckpointAfter,
	}
	w, err := generate(crashCfg)
	if err != nil {
		return nil, err
	}
	fail := func(offset int, err error) error {
		return fmt.Errorf("failover: seed=%d workload=%s policy=%s offset=%d: %w",
			cfg.Seed, w.Name, cfg.Policy, offset, err)
	}
	golden, goldenTables, err := newCrashDB(crashCfg, w, nil, nil)
	if err != nil {
		return nil, fail(-1, err)
	}
	// TupleBytes is the workload's mean modeled tuple width: the checkpoint
	// feature the planner would use, kept identical across the sweep.
	tupleBytes := 0.0
	for _, tbl := range goldenTables {
		tupleBytes += float64(tbl.Meta.Schema.TupleBytes())
	}
	tupleBytes /= float64(len(goldenTables))
	goldenCommits, _, err := runCrashWorkload(crashCfg, w, golden, goldenTables, nil)
	if err != nil {
		return nil, fail(-1, err)
	}
	goldenLog := golden.WAL.Durable()

	var offsets []int
	for off := 0; off < len(goldenLog); off += cfg.Stride {
		offsets = append(offsets, off)
	}
	offsets = append(offsets, len(goldenLog))

	drill := func(offset int) (drillResult, error) {
		var res drillResult
		plan := hw.NoFaults()
		plan.CrashAtByte = int64(offset)
		logDev := hw.NewFaultDevice(nil, plan)
		db, tables, err := newCrashDB(crashCfg, w, logDev, nil)
		if err != nil {
			return res, err
		}
		factory := func() (*engine.DB, error) {
			rdb, _, err := newCrashDB(crashCfg, w, nil, nil)
			return rdb, err
		}
		grp, err := repl.NewGroup(db, factory, server.NewPipe(), repl.GroupConfig{
			Replicas: cfg.Replicas, Cadence: cfg.Cadence, ApplyEvery: cfg.ApplyEvery,
		})
		if err != nil {
			return res, err
		}
		defer grp.Close()
		_, crashed, err := runCrashWorkload(crashCfg, w, db, tables, grp.Sync)
		if err != nil {
			return res, err
		}
		res.crashed = crashed
		// Without a checkpoint the fault device's durable contents must be
		// bit-for-bit the golden image cut at the kill point: the injected
		// crash and the sliced prefix are the same failure.
		if cfg.CheckpointAfter <= 0 {
			cut := goldenLog[:min(offset, len(goldenLog))]
			if crashed && !bytes.Equal(logDev.Contents(), cut) {
				return res, fmt.Errorf("torn durable image diverges from golden prefix (%d vs %d bytes)",
					logDev.Len(), len(cut))
			}
		}
		if err := grp.Close(); err != nil {
			return res, err
		}

		sts := grp.Status()
		cost := func(repl.Status) (float64, error) { return 0, nil } // "fixed": every tie goes to replica 0
		if cfg.Policy == "predicted" {
			cost = func(st repl.Status) (float64, error) { return cfg.Predict(estimateFromStatus(st, tupleBytes)) }
		}
		chosen, err := repl.PickPromotion(sts, cost)
		if err != nil {
			return res, err
		}
		res.chosen = chosen
		res.pendingBytes = sts[chosen].PendingBytes

		rep := grp.Replicas()[chosen]
		ps, err := rep.Promote()
		if err != nil {
			return res, err
		}
		res.failoverUS = ps.Elapsed.ElapsedUS

		// The promoted node must expose exactly the commits it had
		// received: the oracle state at k, correct commit timestamp,
		// rebuilt indexes agreeing with visibility.
		k := sts[chosen].ReceivedCommits
		res.commits = k
		if k > goldenCommits {
			return res, fmt.Errorf("replica received %d commits, golden run committed %d", k, goldenCommits)
		}
		ndb := rep.DB()
		if got := ndb.Txns.LastCommitTS(); got != k {
			return res, fmt.Errorf("promoted commit ts %d, oracle expects %d", got, k)
		}
		ntables := make([]*storage.Table, len(w.Schema.Tables))
		for i, t := range w.Schema.Tables {
			if ntables[i] = ndb.Table(t.Name); ntables[i] == nil {
				return res, fmt.Errorf("promoted node lost table %q", t.Name)
			}
		}
		state := workload.CaptureState(ntables, k)
		if err := state.Diff(w.ModelAfter(k)); err != nil {
			return res, err
		}
		if err := ndb.CheckIndexes(); err != nil {
			return res, fmt.Errorf("rebuilt index: %w", err)
		}
		res.stateDigest = state.Digest()
		return res, nil
	}

	results := make([]drillResult, len(offsets))
	errs := make([]error, len(offsets))
	par.Do(cfg.Jobs, len(offsets), func(i int) {
		results[i], errs[i] = drill(offsets[i])
	})
	for i, err := range errs {
		if err != nil {
			return nil, fail(offsets[i], err)
		}
	}

	report := &FailoverReport{
		Seed: cfg.Seed, Workload: w.Name, Policy: cfg.Policy, Replicas: cfg.Replicas,
		Txns: len(w.Txns), Commits: goldenCommits, LogBytes: len(goldenLog),
		Offsets: len(offsets), Checkpointed: cfg.CheckpointAfter > 0,
		Promotions: make([]int, cfg.Replicas),
	}
	h := fold.New()
	for i, r := range results {
		if r.crashed {
			report.Crashes++
		}
		report.Promotions[r.chosen]++
		report.MeanFailoverUS += r.failoverUS
		if r.failoverUS > report.MaxFailoverUS {
			report.MaxFailoverUS = r.failoverUS
		}
		report.MeanPendingBytes += float64(r.pendingBytes)
		fmt.Fprintf(&h, "%d:%d:%d:%#x:%x;", offsets[i], r.chosen, r.commits,
			r.stateDigest, math.Float64bits(r.failoverUS))
	}
	report.MeanFailoverUS /= float64(len(results))
	report.MeanPendingBytes /= float64(len(results))
	report.Digest = h.Sum64()
	return report, nil
}
