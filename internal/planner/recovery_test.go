package planner

import (
	"testing"

	"mb2/internal/modeling"
)

// recEst builds a recovery estimate for a node with the given staleness over
// a heap of `rows` rows with one secondary index.
func recEst(pendingRecords, pendingCommits, pendingBytes, rows float64) modeling.RecoveryEstimate {
	return modeling.RecoveryEstimate{
		PendingRecords: pendingRecords,
		PendingCommits: pendingCommits,
		PendingBytes:   pendingBytes,
		Rows:           rows,
		Indexes:        1,
		KeyBytes:       rows * 8,
		TupleBytes:     16,
	}
}

// Recovery predictions must be positive, grow with staleness, and rank a
// fresh replica ahead of stale ones.
func TestPredictRecoveryAndPromotionRanking(t *testing.T) {
	ms := sharedModels(t)
	db, _ := scanDB(t, 100)
	p := New(db, ms)

	fresh := recEst(0, 0, 0, 1000)
	stale := recEst(2000, 1000, 150_000, 1000)
	staler := recEst(20_000, 10_000, 1_500_000, 1000)

	freshUS, err := p.PredictRecoveryUS(fresh)
	if err != nil {
		t.Fatal(err)
	}
	staleUS, err := p.PredictRecoveryUS(stale)
	if err != nil {
		t.Fatal(err)
	}
	stalerUS, err := p.PredictRecoveryUS(staler)
	if err != nil {
		t.Fatal(err)
	}
	if freshUS <= 0 {
		t.Fatalf("fresh recovery predicted %v us", freshUS)
	}
	if !(freshUS < staleUS && staleUS < stalerUS) {
		t.Fatalf("recovery cost not monotone in staleness: %v, %v, %v", freshUS, staleUS, stalerUS)
	}

	best, preds, err := p.PickPromotion([]modeling.RecoveryEstimate{stale, fresh, staler})
	if err != nil {
		t.Fatal(err)
	}
	if best != 1 {
		t.Fatalf("promotion picked replica %d (preds %v), want the fresh one", best, preds)
	}
	if len(preds) != 3 || preds[1] != freshUS {
		t.Fatalf("promotion predictions %v, want fresh=%v at index 1", preds, freshUS)
	}
	// Exact ties break toward the lowest index.
	if tied, _, err := p.PickPromotion([]modeling.RecoveryEstimate{fresh, fresh}); err != nil || tied != 0 {
		t.Fatalf("tie-break picked %d (err %v), want 0", tied, err)
	}
	if _, _, err := p.PickPromotion(nil); err == nil {
		t.Fatal("empty candidate set must fail")
	}
}
