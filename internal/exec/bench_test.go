package exec_test

// Microbenchmarks for the hot execution pipelines, one sub-benchmark per
// (scenario, variant). Tier-1 CI runs them with -benchtime=1x as a smoke
// test. The variants of a scenario execute identical plans over identical
// data, so ns/op and allocs/op differences measure the execution path, not
// the workload.

import (
	"fmt"
	"testing"

	"mb2/internal/exec"
	"mb2/internal/exec/execbench"
)

const benchRows = 20000

// Smaller table for the partition sweep: it benchmarks parts x dop cells,
// so each cell stays cheap enough for the tier-1 -benchtime=1x smoke run.
const benchPartRows = 8000

func BenchmarkPipelines(b *testing.B) {
	db, err := execbench.NewDB(benchRows)
	if err != nil {
		b.Fatal(err)
	}
	for _, sc := range execbench.Scenarios(benchRows) {
		for _, v := range execbench.Variants() {
			b.Run(sc.Name+"/"+v.Name, func(b *testing.B) {
				ctx := execbench.NewCtx(db, v)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := exec.Execute(ctx, sc.Plan); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPartitionPipelines sweeps the parallel scan and partition-wise
// join over partition-count x DOP cells; tier-1 smoke runs it at
// -benchtime=1x to keep the parallel paths exercised on every run.
func BenchmarkPartitionPipelines(b *testing.B) {
	for _, parts := range []int{1, 4} {
		for _, dop := range []int{1, 4} {
			if dop > parts {
				continue
			}
			db, err := execbench.NewPartitionedDB(benchPartRows, parts, dop)
			if err != nil {
				b.Fatal(err)
			}
			for _, sc := range execbench.PartitionScenarios(benchPartRows) {
				name := fmt.Sprintf("%s/parts=%d/dop=%d", sc.Name, parts, dop)
				b.Run(name, func(b *testing.B) {
					ctx := execbench.NewCtxDOP(db, execbench.Variants()[0], dop)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := exec.Execute(ctx, sc.Plan); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
