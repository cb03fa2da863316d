package exec_test

// Fused/unfused equivalence property test: across a seeded matrix of
// SmallBank, TATP, and TPC-H query templates, the three execution
// configurations —
//
//	(a) interpreted            (operator-at-a-time)
//	(b) compiled, fusion off   (operator-at-a-time)
//	(c) compiled, fused        (single-pass pipelines)
//
// must return identical result multisets; (b) and (c) must emit identical
// OU record streams (same kinds, same order, bit-identical features,
// bit-identical labels); and (a) must match (c) on every feature except the
// trailing execution-mode flag. This is the contract that keeps models
// trained on either path valid for both.

import (
	"fmt"
	"sort"
	"testing"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/exec"
	"mb2/internal/hw"
	"mb2/internal/metrics"
	"mb2/internal/plan"
	"mb2/internal/workload"
)

// canonRows renders a plan's result as row strings: in result order when the
// plan's root is a sort (the order is the result), as a sorted multiset
// otherwise.
func canonRows(root plan.Node, b *exec.Batch) []string {
	out := rowStrings(b)
	if _, ordered := root.(*plan.SortNode); !ordered {
		sort.Strings(out)
	}
	return out
}

// equivalenceCase is one database the equivalence tests run every template
// of a benchmark on: a partition count and the DOP the contexts run at.
type equivalenceCase struct {
	bench      workload.Benchmark
	scale      float64
	parts, dop int
	seeds      []int64
	// wantVec marks the cases with chains VecPass can take: rooted at a
	// sequential scan of an unpartitioned table. SmallBank and TATP are
	// pure index-lookup + DML workloads, and a partitioned table's scans
	// take the exchange, so every chain there runs materialized — the
	// equivalence contract still holds, just with zero batches.
	wantVec bool
}

func (tc equivalenceCase) name(seed int64) string {
	name := fmt.Sprintf("%s/seed%d", tc.bench.Name(), seed)
	if tc.parts > 1 || tc.dop > 1 {
		name += fmt.Sprintf("/parts%d/dop%d", tc.parts, tc.dop)
	}
	return name
}

func (tc equivalenceCase) knobs() catalog.Knobs {
	knobs := catalog.DefaultKnobs()
	knobs.PartitionCount = tc.parts
	return knobs
}

// equivalenceCases is shared by the fused/unfused and the vectorized
// equivalence tests. chainShapes ignores the seed.
var equivalenceCases = []equivalenceCase{
	{workload.SmallBank{}, 0.05, 1, 1, []int64{1, 7}, false},
	{workload.TATP{}, 0.05, 1, 1, []int64{1, 7}, false},
	{workload.TPCH{}, 0.02, 1, 1, []int64{1, 7}, true},
	{workload.TPCH{}, 0.02, 4, 2, []int64{1}, false},
	{chainShapes{}, 1, 1, 1, []int64{1}, true},
	{chainShapes{}, 1, 1, 2, []int64{1}, true},
	{chainShapes{}, 1, 4, 1, []int64{1}, false},
	{chainShapes{}, 1, 4, 2, []int64{1}, false},
}

func TestFusedUnfusedEquivalence(t *testing.T) {
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

				type result struct {
					rows    []string
					recs    []metrics.Record
					fusedPL int
				}
				run := func(name string, mode catalog.ExecutionMode, disableFusion bool) map[string]result {
					out := make(map[string]result, len(templates))
					for _, q := range templates {
						col := metrics.NewCollector()
						ctx := &exec.Ctx{
							DB:            db,
							Tracker:       metrics.NewTracker(col, hw.NewThread(hw.DefaultCPU())),
							Mode:          mode,
							Contenders:    1,
							DOP:           tc.dop,
							DisableFusion: disableFusion,
						}
						b, err := exec.Execute(ctx, q.Plan)
						if err != nil {
							t.Fatalf("%s/%s: %v", name, q.Name, err)
						}
						out[q.Name] = result{rows: canonRows(q.Plan, b), recs: col.Drain(), fusedPL: ctx.FusedPipelines}
					}
					return out
				}

				interp := run("interpreted", catalog.Interpret, false)
				unfused := run("compiled-unfused", catalog.Compile, true)
				fused := run("compiled-fused", catalog.Compile, false)

				totalFused := 0
				for _, q := range templates {
					i, u, f := interp[q.Name], unfused[q.Name], fused[q.Name]
					totalFused += f.fusedPL
					if u.fusedPL != 0 {
						t.Errorf("%s: DisableFusion ran %d fused pipelines", q.Name, u.fusedPL)
					}

					// Result sets identical across all three configurations.
					for who, other := range map[string][]string{"interpreted": i.rows, "compiled-unfused": u.rows} {
						if len(other) != len(f.rows) {
							t.Fatalf("%s: %s returned %d rows, fused %d", q.Name, who, len(other), len(f.rows))
						}
						for k := range other {
							if other[k] != f.rows[k] {
								t.Fatalf("%s: %s row %d = %s, fused = %s", q.Name, who, k, other[k], f.rows[k])
							}
						}
					}

					// OU record streams: fused vs unfused-compiled must agree
					// exactly on kind order, features and labels; interpreted
					// agrees on all features except the trailing mode flag.
					if len(i.recs) != len(f.recs) || len(u.recs) != len(f.recs) {
						t.Fatalf("%s: OU record counts %d/%d/%d (interp/unfused/fused)",
							q.Name, len(i.recs), len(u.recs), len(f.recs))
					}
					for k := range f.recs {
						fr, ur, ir := f.recs[k], u.recs[k], i.recs[k]
						if fr.Kind != ur.Kind || fr.Kind != ir.Kind {
							t.Fatalf("%s: record %d kinds %v/%v/%v", q.Name, k, ir.Kind, ur.Kind, fr.Kind)
						}
						if len(fr.Features) != len(ur.Features) || len(fr.Features) != len(ir.Features) {
							t.Fatalf("%s: record %d feature lengths differ", q.Name, k)
						}
						for j := range fr.Features {
							if fr.Features[j] != ur.Features[j] {
								t.Errorf("%s: record %d (%v) feature %d: fused %v vs unfused %v",
									q.Name, k, fr.Kind, j, fr.Features[j], ur.Features[j])
							}
							// The mode flag is by construction the LAST
							// feature of every execution OU vector.
							if j < len(fr.Features)-1 && fr.Features[j] != ir.Features[j] {
								t.Errorf("%s: record %d (%v) feature %d: fused %v vs interpreted %v",
									q.Name, k, fr.Kind, j, fr.Features[j], ir.Features[j])
							}
						}
						fv, uv := fr.Labels.Vec(), ur.Labels.Vec()
						for j := range fv {
							if fv[j] != uv[j] {
								t.Errorf("%s: record %d (%v) label %d: fused %v vs unfused %v",
									q.Name, k, fr.Kind, j, fv[j], uv[j])
							}
						}
					}
				}
				if totalFused == 0 {
					t.Error("no template exercised the fused path")
				}
			})
		}
	}
}
