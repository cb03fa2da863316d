package main

import (
	"fmt"
	"testing"

	"mb2/internal/workload"
)

// TestReplRunMatchesOracle runs the replication demo at two seeds with one
// and three replicas: the promoted state must be the oracle's fold of every
// committed transaction of the SmallBank stream, and a re-run must
// reproduce its digest.
func TestReplRunMatchesOracle(t *testing.T) {
	const txns = 40
	for _, seed := range []int64{1, 9} {
		stream := workload.SmallBank{}.Stream(seed, txns)
		commits := uint64(0)
		for _, ct := range stream.Txns {
			if !ct.Abort {
				commits++
			}
		}
		want := stream.ModelAfter(commits).Digest()
		for _, replicas := range []int{1, 3} {
			t.Run(fmt.Sprintf("seed=%d,replicas=%d", seed, replicas), func(t *testing.T) {
				got, err := replRun(replicas, txns, seed, false)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("promoted digest %#x, oracle over %d commits %#x", got, commits, want)
				}
				again, err := replRun(replicas, txns, seed, false)
				if err != nil {
					t.Fatal(err)
				}
				if again != got {
					t.Fatalf("re-run promoted digest %#x, first run %#x", again, got)
				}
			})
		}
	}
}
