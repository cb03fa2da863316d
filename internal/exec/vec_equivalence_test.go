package exec_test

// Vectorized-mode equivalence property test: across the same seeded
// SmallBank/TATP/TPC-H template matrix as the fused/unfused test,
// vectorized execution must return result multisets bit-identical to the
// interpreted path. Unlike the fused path, the vectorized OU stream is NOT
// record-equivalent to the interpreted one — VEC_SCAN/VEC_FILTER/VEC_PROBE
// are separate OU kinds with their own models — so this test checks the
// result contract plus the shape of the vec OU stream: vectorizable chains
// emit VEC_* records, everything else falls back to interpreted-flagged
// operator records.

import (
	"testing"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/exec"
	"mb2/internal/hw"
	"mb2/internal/metrics"
	"mb2/internal/ou"
)

func TestVectorizedInterpretedEquivalence(t *testing.T) {
	for _, tc := range equivalenceCases {
		for _, seed := range tc.seeds {
			tc, seed := tc, seed
			t.Run(tc.name(seed), func(t *testing.T) {
				t.Parallel()
				db := engine.Open(tc.knobs())
				if err := tc.bench.Load(db, tc.scale, seed); err != nil {
					t.Fatal(err)
				}
				templates := tc.bench.Templates(db, seed)
				if len(templates) == 0 {
					t.Fatal("no templates")
				}

				totalBatches, totalVecRecs := 0, 0
				for _, q := range templates {
					run := func(mode catalog.ExecutionMode) (*exec.Batch, []metrics.Record, int) {
						col := metrics.NewCollector()
						ctx := &exec.Ctx{
							DB:         db,
							Tracker:    metrics.NewTracker(col, hw.NewThread(hw.DefaultCPU())),
							Mode:       mode,
							Contenders: 1,
							DOP:        tc.dop,
						}
						b, err := exec.Execute(ctx, q.Plan)
						if err != nil {
							t.Fatalf("%v/%s: %v", mode, q.Name, err)
						}
						return b, col.Drain(), ctx.VecBatches
					}
					ib, _, ivb := run(catalog.Interpret)
					vb, vrecs, vvb := run(catalog.Vectorize)
					if ivb != 0 {
						t.Errorf("%s: interpreted mode processed %d vec batches", q.Name, ivb)
					}
					totalBatches += vvb

					irows, vrows := canonRows(q.Plan, ib), canonRows(q.Plan, vb)
					if len(irows) != len(vrows) {
						t.Fatalf("%s: vectorized returned %d rows, interpreted %d",
							q.Name, len(vrows), len(irows))
					}
					for k := range irows {
						if irows[k] != vrows[k] {
							t.Fatalf("%s: row %d vectorized = %s, interpreted = %s",
								q.Name, k, vrows[k], irows[k])
						}
					}

					// The vec OU stream: every VEC_* record belongs to vec
					// mode only, and non-VEC execution records must carry the
					// interpreted mode flag (fallback operators pay — and
					// report — interpreter costs).
					for _, r := range vrecs {
						switch r.Kind {
						case ou.VecScan, ou.VecFilter, ou.VecProbe:
							totalVecRecs++
						case ou.SeqScan, ou.IdxScan, ou.HashJoinBuild, ou.HashJoinProbe,
							ou.AggBuild, ou.AggProbe, ou.SortBuild, ou.SortIter, ou.Output:
							f := r.Features
							if f[len(f)-1] != 0 {
								t.Errorf("%s: %v record flagged compiled in vectorized mode", q.Name, r.Kind)
							}
						}
					}
				}
				if tc.wantVec && totalBatches == 0 {
					t.Error("no template exercised the vectorized path")
				}
				if tc.wantVec && totalVecRecs == 0 {
					t.Error("no template emitted VEC_* OU records")
				}
			})
		}
	}
}
