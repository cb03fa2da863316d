package exec

// Tests of the one build table: keyTable against a map, and the aggregation
// built on it against a map-based fold on every driver.

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"mb2/internal/catalog"
	"mb2/internal/index"
	"mb2/internal/plan"
	"mb2/internal/storage"
)

// FuzzKeyTable inserts the keys data spells — each a length byte (mod 6)
// and that many following bytes, so short keys repeat — into a table that
// starts from the bucket heads the first byte picks, and so doubles its heads
// several times, then checks it against a map: entries in first-seen order,
// each heading the rows inserted under its key in insertion order, the row
// that opened it first, every key found, a key never inserted not found. The
// table is then reset and filled again, as a pooled table is reused.
func FuzzKeyTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 'a', 1, 'b', 1, 'a', 0, 0, 2, 'a', 'b'})
	f.Add(bytes.Repeat([]byte{1, 'x', 2, 'y', 'z', 3, 1, 2, 3}, 40))
	seq := []byte{0}
	for i := 0; i < 300; i++ {
		seq = append(seq, 2, byte(i), byte(i>>8))
	}
	f.Add(seq)
	f.Fuzz(func(t *testing.T, data []byte) {
		var kt keyTable
		for pass := 0; pass < 2; pass++ {
			heads := 1
			if len(data) > 0 {
				heads = 1 << (data[0] % 5)
			}
			kt.reset(heads, 0)
			entryOf := map[string]int32{} // key → entry
			var order []string            // first-seen keys
			var rows [][]int32            // entry → its rows
			for i := 1; i < len(data); {
				n := int(data[i] % 6)
				i++
				k := data[i:min(i+n, len(data))]
				i += n
				row := int32(len(kt.next))
				e, fresh := kt.insert(k)
				want, seen := entryOf[string(k)]
				if !seen {
					want = int32(len(order))
					entryOf[string(k)] = want
					order = append(order, string(k))
					rows = append(rows, nil)
				}
				if e != want || fresh == seen {
					t.Fatalf("insert %x: entry %d fresh %v, want %d fresh %v", k, e, fresh, want, !seen)
				}
				rows[want] = append(rows[want], row)
			}
			if len(kt.entries) != len(order) {
				t.Fatalf("%d entries for %d distinct keys", len(kt.entries), len(order))
			}
			if h := len(kt.heads); h&(h-1) != 0 || len(kt.entries) > h/2 {
				t.Fatalf("%d heads for %d entries", h, len(kt.entries))
			}
			for e, k := range order {
				ent := kt.entries[e]
				if got := string(kt.keys[ent.off : ent.off+ent.klen]); got != k {
					t.Fatalf("entry %d holds %x, want %x", e, got, k)
				}
				if _, got := kt.find([]byte(k)); got != int32(e) {
					t.Fatalf("find %x = %d, want %d", k, got, e)
				}
				var got []int32
				for r := kt.first([]byte(k)); r >= 0; r = kt.next[r] {
					got = append(got, r)
				}
				if !reflect.DeepEqual(got, rows[e]) || ent.first != rows[e][0] || ent.last != rows[e][len(rows[e])-1] {
					t.Fatalf("key %x: rows %v (first %d, last %d), want %v", k, got, ent.first, ent.last, rows[e])
				}
			}
			if _, e := kt.find(bytes.Repeat([]byte{0xff}, 6)); e >= 0 {
				t.Fatalf("a key never inserted found at entry %d", e)
			}
		}
	})
}

// refAgg is the reference aggregation: a map from group key to the group's
// argument values, folded in input order, groups in first-seen order.
func refAgg(rows []storage.Tuple, groupBy []int, aggs []plan.AggSpec) []storage.Tuple {
	type group struct {
		cols storage.Tuple
		vals [][]float64
	}
	byKey := map[string]*group{}
	var order []*group
	for _, r := range rows {
		var cols storage.Tuple
		for _, c := range groupBy {
			cols = append(cols, r[c])
		}
		k := fmt.Sprint(cols)
		g := byKey[k]
		if g == nil {
			g = &group{cols: cols, vals: make([][]float64, len(aggs))}
			byKey[k] = g
			order = append(order, g)
		}
		for ai, a := range aggs {
			g.vals[ai] = append(g.vals[ai], a.Arg.Eval(r).AsFloat())
		}
	}
	var out []storage.Tuple
	for _, g := range order {
		row := g.cols
		for ai, a := range aggs {
			vs := g.vals[ai]
			sum, lo, hi := 0.0, vs[0], vs[0]
			for _, v := range vs {
				sum += v
				lo, hi = min(lo, v), max(hi, v)
			}
			switch a.Fn {
			case plan.Count:
				row = append(row, storage.NewInt(int64(len(vs))))
			case plan.Sum:
				row = append(row, storage.NewFloat(sum))
			case plan.Min:
				row = append(row, storage.NewFloat(lo))
			case plan.Max:
				row = append(row, storage.NewFloat(hi))
			default:
				row = append(row, storage.NewFloat(sum/float64(len(vs))))
			}
		}
		out = append(out, row)
	}
	return out
}

// TestAggregationMatchesMapFold runs GROUP BY with every aggregate function
// on every driver and compares it with refAgg: one group, every row its own
// group, string keys, a two-column key, keys whose buckets hold several
// distinct keys, negative values, and an aggregation over a hash join over a
// hash join. The argument values are small integers, so sums are exact in
// any order; the Exchange delivers rows in partition order, so its groups are
// compared as a multiset, every other driver's in first-seen order.
func TestAggregationMatchesMapFold(t *testing.T) {
	schema := catalog.NewSchema(
		catalog.Column{Name: "k", Type: catalog.Int64},
		catalog.Column{Name: "s", Type: catalog.Varchar, Width: 8},
		catalog.Column{Name: "v", Type: catalog.Float64},
	)
	rows := func(n int, k func(i int) int64, v func(i int) float64) []storage.Tuple {
		out := make([]storage.Tuple, n)
		for i := range out {
			out[i] = storage.Tuple{storage.NewInt(k(i)), storage.NewString(fmt.Sprintf("s%d", k(i)%7)), storage.NewFloat(v(i))}
		}
		return out
	}
	mod := func(m int64) func(int) int64 { return func(i int) int64 { return int64(i) % m } }
	ident := func(i int) int64 { return int64(i) }
	val := func(i int) float64 { return float64(i%13 + 1) }
	aggs := func(col int) []plan.AggSpec {
		return []plan.AggSpec{{Fn: plan.Count, Arg: plan.Col(0)}, {Fn: plan.Sum, Arg: plan.Col(col)},
			{Fn: plan.Min, Arg: plan.Col(col)}, {Fn: plan.Max, Arg: plan.Col(col)}, {Fn: plan.Avg, Arg: plan.Col(col)}}
	}
	// collide's keys put several distinct keys in one bucket of the table the
	// aggregation grows to.
	collideKey := func(i int) int64 { return int64(i%1500) * 1000003 }
	cases := []struct {
		name    string
		groupBy []int
		build   []storage.Tuple
		// joined aggregates over b ⋈ (b ⋈ p) on k instead of over b.
		joined  bool
		probe   []storage.Tuple
		collide bool
	}{
		{name: "one group", groupBy: []int{}, build: rows(200, mod(9), val)},
		{name: "every row its own group", groupBy: []int{0}, build: rows(300, ident, val)},
		{name: "string keys", groupBy: []int{1}, build: rows(250, mod(40), val)},
		{name: "two-column key", groupBy: []int{1, 0}, build: rows(250, mod(23), val)},
		{name: "buckets of several keys", groupBy: []int{0}, build: rows(3000, collideKey, val), collide: true},
		{name: "negative values", groupBy: []int{0}, build: rows(240, mod(11), func(i int) float64 { return -float64(i%17) - 0.5 })},
		{name: "over a join over a join", groupBy: []int{1}, joined: true,
			build: rows(60, mod(12), val), probe: rows(40, func(i int) int64 { return int64(i%15) + 3 }, val)},
	}
	for _, tc := range cases {
		if tc.collide {
			var kt keyTable
			kt.reset(aggHeads, 0)
			var keyBuf []byte
			for _, r := range tc.build {
				keyBuf = index.AppendKeyFromTuple(keyBuf[:0], r, tc.groupBy)
				kt.insert(keyBuf)
			}
			if n := longestChain(&kt); n < 2 {
				t.Fatalf("%s: longest bucket chain holds %d keys, want several", tc.name, n)
			}
		}
		for _, d := range joinDrivers {
			t.Run(tc.name+"/"+d.name, func(t *testing.T) {
				ctx, _ := newJoinDB(t, d, schema, []int{0}, tc.build, tc.probe)
				var child plan.Node = &plan.SeqScanNode{Table: "b"}
				in := tc.build
				if tc.joined {
					join := func(right plan.Node) *plan.HashJoinNode {
						return &plan.HashJoinNode{Left: &plan.SeqScanNode{Table: "b"}, Right: right,
							LeftKeys: []int{0}, RightKeys: []int{0}}
					}
					child = join(join(&plan.SeqScanNode{Table: "p"}))
					in = nestedLoop(tc.build, nestedLoop(tc.build, tc.probe, []int{0}), []int{0})
				}
				q := &plan.AggNode{Child: child, GroupBy: tc.groupBy, Aggs: aggs(2)}
				b, err := Execute(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				got, want := tupleStrings(b.Rows), tupleStrings(refAgg(in, tc.groupBy, q.Aggs))
				if d.parts > 1 {
					sort.Strings(got)
					sort.Strings(want)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%d groups differ from the map fold's %d:\n got %v\nwant %v", len(got), len(want), got, want)
				}
			})
		}
	}
}
