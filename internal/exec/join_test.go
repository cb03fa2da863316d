package exec

// Tests of the one hash join: its rows against a reference that is not a
// hash table, its build's cost in the number of rows per key, where its
// scratch lives per driver, and the JHTSleepEvery charge on every driver.

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/index"
	"mb2/internal/metrics"
	"mb2/internal/ou"
	"mb2/internal/plan"
	"mb2/internal/storage"
)

// joinDriver is one configuration that puts a hash join of two bare scans on
// one of the four drivers.
type joinDriver struct {
	name       string
	mode       catalog.ExecutionMode
	parts, dop int
}

var joinDrivers = []joinDriver{
	{"Materialize", catalog.Interpret, 1, 1},
	{"RowPass", catalog.Compile, 1, 1},
	{"VecPass", catalog.Vectorize, 1, 1},
	{"Exchange/dop1", catalog.Interpret, 4, 1},
	{"Exchange/dop2", catalog.Interpret, 4, 2},
}

// newJoinDB loads tables "b" (the build side) and "p" (the probe side), both
// of the given schema and hash-partitioned on keyCols.
func newJoinDB(t *testing.T, d joinDriver, schema catalog.Schema, keyCols []int, build, probe []storage.Tuple) (*Ctx, *metrics.Collector) {
	t.Helper()
	knobs := catalog.DefaultKnobs()
	knobs.PartitionCount = d.parts
	db := engine.Open(knobs)
	for name, rows := range map[string][]storage.Tuple{"b": build, "p": probe} {
		tbl, err := db.CreateTable(name, schema)
		if err != nil {
			t.Fatal(err)
		}
		tbl.SetPartitioning(keyCols, d.parts)
		if err := db.BulkLoad(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	ctx, col := testCtx(db)
	ctx.Mode, ctx.DOP = d.mode, d.dop
	return ctx, col
}

// nestedLoop is the reference join: probe order outer, build-row order inner.
func nestedLoop(build, probe []storage.Tuple, keyCols []int) []storage.Tuple {
	var out []storage.Tuple
	for _, p := range probe {
	next:
		for _, b := range build {
			for _, c := range keyCols {
				if !b[c].Equal(p[c]) {
					continue next
				}
			}
			out = append(out, append(b.Clone(), p...))
		}
	}
	return out
}

func tupleStrings(rows []storage.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	return out
}

// longestChain is the most distinct keys any bucket of t holds.
func longestChain(t *joinTable) int {
	longest := 0
	for _, e := range t.heads {
		n := 0
		for ; e >= 0; e = t.entries[e].chain {
			n++
		}
		longest = max(longest, n)
	}
	return longest
}

func TestHashJoinMatchesNestedLoop(t *testing.T) {
	intRows := func(n int, key func(i int) []int64) []storage.Tuple {
		rows := make([]storage.Tuple, n)
		for i := range rows {
			k := key(i)
			rows[i] = storage.Tuple{storage.NewInt(k[0]), storage.NewInt(k[1]), storage.NewInt(int64(i))}
		}
		return rows
	}
	strRows := func(n, mod int) []storage.Tuple {
		rows := make([]storage.Tuple, n)
		for i := range rows {
			rows[i] = storage.Tuple{storage.NewString(fmt.Sprintf("key-%d", i%mod)), storage.NewInt(int64(i))}
		}
		return rows
	}
	ints := catalog.NewSchema(
		catalog.Column{Name: "k1", Type: catalog.Int64},
		catalog.Column{Name: "k2", Type: catalog.Int64},
		catalog.Column{Name: "seq", Type: catalog.Int64},
	)
	strs := catalog.NewSchema(
		catalog.Column{Name: "k", Type: catalog.Varchar, Width: 8},
		catalog.Column{Name: "seq", Type: catalog.Int64},
	)
	mod := func(m int64) func(int) []int64 {
		return func(i int) []int64 { return []int64{int64(i) % m, 0} }
	}
	cases := []struct {
		name         string
		schema       catalog.Schema
		keyCols      []int
		build, probe []storage.Tuple
		// nested puts a second join of the same tables on the probe side.
		nested bool
		// collide demands a build whose buckets hold several distinct keys.
		collide bool
	}{
		{name: "duplicate keys on both sides", schema: ints, keyCols: []int{0},
			build: intRows(60, mod(7)), probe: intRows(40, mod(5))},
		{name: "two-column key", schema: ints, keyCols: []int{0, 1},
			build: intRows(48, func(i int) []int64 { return []int64{int64(i % 3), int64(i % 4)} }),
			probe: intRows(30, func(i int) []int64 { return []int64{int64(i % 4), int64(i % 3)} })},
		{name: "varchar key", schema: strs, keyCols: []int{0}, build: strRows(40, 6), probe: strRows(25, 9)},
		{name: "keys on one side only", schema: ints, keyCols: []int{0},
			build: intRows(10, mod(10)), probe: intRows(10, func(i int) []int64 { return []int64{int64(i) + 5, 0} })},
		{name: "empty build", schema: ints, keyCols: []int{0}, probe: intRows(12, mod(4))},
		{name: "empty probe", schema: ints, keyCols: []int{0}, build: intRows(12, mod(4))},
		{name: "buckets of several keys", schema: ints, keyCols: []int{0}, collide: true,
			build: intRows(3000, func(i int) []int64 { return []int64{int64(i%1500) * 1000003, 0} }),
			probe: intRows(800, func(i int) []int64 { return []int64{int64(i*7%2000) * 1000003, 0} })},
		{name: "join on the probe side", schema: ints, keyCols: []int{0}, nested: true,
			build: intRows(30, func(i int) []int64 { return []int64{int64(i%6) + 50, 0} }),
			probe: intRows(20, func(i int) []int64 { return []int64{int64(i%9) + 50, 0} })},
	}
	for _, tc := range cases {
		for _, d := range joinDrivers {
			t.Run(tc.name+"/"+d.name, func(t *testing.T) {
				ctx, col := newJoinDB(t, d, tc.schema, tc.keyCols, tc.build, tc.probe)
				join := func(right plan.Node) *plan.HashJoinNode {
					return &plan.HashJoinNode{Left: &plan.SeqScanNode{Table: "b"}, Right: right,
						LeftKeys: tc.keyCols, RightKeys: tc.keyCols}
				}
				q := join(&plan.SeqScanNode{Table: "p"})
				want := nestedLoop(tc.build, tc.probe, tc.keyCols)
				if tc.nested {
					q, want = join(q), nestedLoop(tc.build, want, tc.keyCols)
				}
				b, err := Execute(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				got, exp := tupleStrings(b.Rows), tupleStrings(want)
				exchange := d.parts > 1
				if exchange {
					// Partition order, not probe order: compare as multisets.
					sort.Strings(got)
					sort.Strings(exp)
				}
				if !reflect.DeepEqual(got, exp) {
					t.Fatalf("%d rows differ from the nested loop's %d:\n got %v\nwant %v", len(got), len(exp), got, exp)
				}
				if ran := slices.Contains(kindsOf(col.Drain()), ou.PartitionProbe); ran != exchange {
					t.Fatalf("partition-wise = %v, want %v", ran, exchange)
				}
				if tc.collide && d.mode == catalog.Compile {
					if n := longestChain(&ctx.jt); n < 2 {
						t.Fatalf("longest bucket chain holds %d keys, want several", n)
					}
				}
			})
		}
	}
}

// TestJoinBuildLinearInRowsPerKey counts rather than times: a build of n and
// of 4n rows under five keys keeps one entry per key and one link per row,
// and the bucket chains its inserts walk — every find compares at most its
// bucket's chain — grow with the rows, not with the rows per key. A streaming
// driver's table lives on in the Ctx, where a second build of the same size
// allocates nothing; Materialize leaves the Ctx's table untouched, so its
// statement-local build is repeated here through the same joinTable.build.
func TestJoinBuildLinearInRowsPerKey(t *testing.T) {
	const n, keys = 2000, 5
	schema := catalog.NewSchema(
		catalog.Column{Name: "k", Type: catalog.Int64},
		catalog.Column{Name: "seq", Type: catalog.Int64},
	)
	rows := func(n int) []storage.Tuple {
		out := make([]storage.Tuple, n)
		for i := range out {
			out[i] = storage.Tuple{storage.NewInt(int64(i % keys)), storage.NewInt(int64(i))}
		}
		return out
	}
	keyCols := []int{0}
	q := &plan.HashJoinNode{Left: &plan.SeqScanNode{Table: "b"}, Right: &plan.SeqScanNode{Table: "p"},
		LeftKeys: keyCols, RightKeys: keyCols}
	for _, d := range joinDrivers[:2] { // Materialize (INTERPRET) and RowPass (COMPILE)
		t.Run(d.name, func(t *testing.T) {
			var steps [2]int
			for i, size := range []int{n, 4 * n} {
				build := rows(size)
				ctx, _ := newJoinDB(t, d, schema, keyCols, build, rows(keys))
				b, err := Execute(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				if len(b.Rows) != size {
					t.Fatalf("%d build rows joined to %d, want one match each", size, len(b.Rows))
				}
				jt := &ctx.jt
				if d.mode == catalog.Interpret {
					if jt.heads != nil || jt.entries != nil || jt.keys != nil || jt.next != nil {
						t.Fatal("a Materialize join built in the Ctx's table")
					}
					jt.build(build, keyCols, nil)
				}
				if len(jt.entries) != keys || len(jt.next) != size {
					t.Fatalf("%d entries and %d row links for %d rows under %d keys", len(jt.entries), len(jt.next), size, keys)
				}
				var keyBuf []byte
				for _, r := range build {
					keyBuf = index.AppendKeyFromTuple(keyBuf[:0], r, keyCols)
					bucket, e := jt.find(keyBuf)
					if e < 0 {
						t.Fatalf("build key %x not in the table", keyBuf)
					}
					for e = jt.heads[bucket]; e >= 0; e = jt.entries[e].chain {
						steps[i]++
					}
				}
				if allocs := testing.AllocsPerRun(3, func() { keyBuf = jt.build(build, keyCols, keyBuf) }); allocs != 0 {
					t.Errorf("rebuilding a table of %d rows allocates %.0f times", size, allocs)
				}
			}
			if steps[0] > 2*n || steps[1] > 4*steps[0] {
				t.Fatalf("chain steps %d at %d rows, %d at %d: want at most %d and 4x", steps[0], n, steps[1], 4*n, 2*n)
			}
		})
	}
}

// TestJoinBuildSleepOnEveryDriver: Ctx.JHTSleepEvery slows the build of the
// join hash table by 1us per started run of that many build rows — of the
// whole build side in HASHJOIN_BUILD, of each partition's stripe in its
// PARTITION_PROBE — and changes no other label.
func TestJoinBuildSleepOnEveryDriver(t *testing.T) {
	const every = 3
	schema := catalog.NewSchema(
		catalog.Column{Name: "k", Type: catalog.Int64},
		catalog.Column{Name: "seq", Type: catalog.Int64},
	)
	rows := func(n int) []storage.Tuple {
		out := make([]storage.Tuple, n)
		for i := range out {
			out[i] = storage.Tuple{storage.NewInt(int64(i)), storage.NewInt(int64(i))}
		}
		return out
	}
	keyCols := []int{0}
	q := &plan.HashJoinNode{Left: &plan.SeqScanNode{Table: "b"}, Right: &plan.SeqScanNode{Table: "p"},
		LeftKeys: keyCols, RightKeys: keyCols}
	for _, d := range joinDrivers {
		for _, size := range []int{0, 1, every, every + 1, 10*every + 1} {
			t.Run(fmt.Sprintf("%s/build%d", d.name, size), func(t *testing.T) {
				// Each run on a fresh thread, so both brackets subtract the same
				// counters.
				run := func(sleepEvery int) (recs []metrics.Record, stripes []int) {
					ctx, col := newJoinDB(t, d, schema, keyCols, rows(size), rows(4))
					ctx.JHTSleepEvery = sleepEvery
					if _, err := Execute(ctx, q); err != nil {
						t.Fatal(err)
					}
					// The build rows each build record covers.
					kind, stripes := ou.HashJoinBuild, []int{size}
					if d.parts > 1 {
						kind, stripes = ou.PartitionProbe, ctx.DB.Table("b").PartitionRowCounts()
					}
					for _, r := range col.Drain() {
						if r.Kind == kind {
							recs = append(recs, r)
						}
					}
					if len(recs) != len(stripes) {
						t.Fatalf("%d %v records, want %d", len(recs), kind, len(stripes))
					}
					return recs, stripes
				}
				plain, stripes := run(0)
				slept, _ := run(every)
				for p, rows := range stripes {
					want := float64((rows + every - 1) / every)
					got := slept[p].Labels.ElapsedUS - plain[p].Labels.ElapsedUS
					if math.Abs(got-want) > 1e-9 {
						t.Errorf("stripe %d, %d build rows: %vus slept, want %v", p, rows, got, want)
					}
					slept[p].Labels.ElapsedUS = plain[p].Labels.ElapsedUS
					if !reflect.DeepEqual(slept[p], plain[p]) {
						t.Errorf("stripe %d: the sleep changed more than elapsed time:\n%+v\n%+v", p, slept[p], plain[p])
					}
				}
			})
		}
	}
}
