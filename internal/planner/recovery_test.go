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

// Recovery predictions must be positive and grow with staleness, so that
// repl.PickPromotion, priced by them, ranks a fresh replica ahead of stale
// ones.
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
}
