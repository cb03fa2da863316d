package ml

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// tieData draws a seeded set built to stress the tie order: features with
// a handful of distinct values, one the mirror of another (the same splits
// scanned in the opposite order), two constant columns, and targets with
// repeated values.
func tieData(n int, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := Dataset{}
	for i := 0; i < n; i++ {
		a := float64(rng.Intn(5))
		b := float64(rng.Intn(3)) * 0.5
		c := math.Round(rng.Float64()*20) / 4
		d.X = append(d.X, []float64{a, -a, 3, b, c, -1})
		d.Y = append(d.Y, []float64{
			1e3*a + 10*b + 0.1*float64(rng.Intn(3)),
			c*b + 0.1*float64(rng.Intn(2)),
		})
	}
	return d
}

// refGrow is the tie-order contract written the slow way: at every node,
// each scanned feature's rows are sorted by value with a stable sort, so
// ties keep their position in the node's rows, and the rows split by
// filtering in order. It shares the scan, the node mean and the feature
// draw with treeBuilder.grow, and none of its presort or partitioning.
func refGrow(b *treeBuilder, rows []int32, depth int) *treeNode {
	b.nodeMean(rows)
	if depth >= b.cfg.maxDepth || len(rows) < 2*b.cfg.minLeaf {
		return b.leaf()
	}
	parentSSE := b.sse(rows)
	s := split{feature: -1, score: parentSSE}
	for _, f := range b.drawFeatures() {
		col := b.cols[f]
		ord := slices.Clone(rows)
		slices.SortStableFunc(ord, func(p, q int32) int { return cmp.Compare(col[p], col[q]) })
		b.scan(f, ord, &s)
	}
	if s.feature < 0 || parentSSE-s.score < 1e-12 {
		return b.leaf()
	}
	var left, right []int32
	for _, r := range rows {
		if b.cols[s.feature][r] <= s.threshold {
			left = append(left, r)
		} else {
			right = append(right, r)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return b.leaf()
	}
	return &treeNode{
		feature:   s.feature,
		threshold: s.threshold,
		left:      refGrow(b, left, depth+1),
		right:     refGrow(b, right, depth+1),
	}
}

// refTree grows the reference tree over a sample of X's rows.
func refTree(X, Ys [][]float64, rows []int32, cfg treeConfig, rng *rand.Rand) *treeNode {
	b := newTreeBuilder(columns(X), flatten(Ys), len(Ys[0]), cfg, rng, rows, nil)
	return refGrow(b, rows, 0)
}

// sameTree reports the first difference between two trees: a node's kind,
// feature, threshold bits or leaf-value bits.
func sameTree(got, want *treeNode, path string) error {
	if got.isLeaf() != want.isLeaf() {
		return fmt.Errorf("%s: leaf %v, want %v", path, got.isLeaf(), want.isLeaf())
	}
	if want.isLeaf() {
		if len(got.value) != len(want.value) {
			return fmt.Errorf("%s: %d outputs, want %d", path, len(got.value), len(want.value))
		}
		for k := range want.value {
			if math.Float64bits(got.value[k]) != math.Float64bits(want.value[k]) {
				return fmt.Errorf("%s: value[%d] %v, want %v", path, k, got.value[k], want.value[k])
			}
		}
		return nil
	}
	if got.feature != want.feature || math.Float64bits(got.threshold) != math.Float64bits(want.threshold) {
		return fmt.Errorf("%s: split x%d <= %v, want x%d <= %v",
			path, got.feature, got.threshold, want.feature, want.threshold)
	}
	if err := sameTree(got.left, want.left, path+"L"); err != nil {
		return err
	}
	return sameTree(got.right, want.right, path+"R")
}

// TestPresortedTreesMatchReference holds the presorted kernel to the
// reference builder on a tie-heavy set, for every model grown from it.
func TestPresortedTreesMatchReference(t *testing.T) {
	d := tieData(600, 41)

	// Raw targets near 1e6: summation order moves a score's low bits past
	// the 1e-12 cut, so a tie order other than (value, position) in any
	// node's scan grows a different tree.
	t.Run("raw", func(t *testing.T) {
		Y := make([][]float64, d.Len())
		for i, y := range d.Y {
			Y[i] = []float64{1e6 + y[0], y[1]}
		}
		cols, y, rows := columns(d.X), flatten(Y), identityRows(d.Len())
		cfg := treeConfig{maxDepth: 12, minLeaf: 2}
		got := newTreeBuilder(cols, y, 2, cfg, nil, rows, newPresorter(cols).sort(rows)).grow(0, len(rows), 0)
		if err := sameTree(got, refTree(d.X, Y, identityRows(d.Len()), cfg, nil), "root"); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("tree", func(t *testing.T) {
		m := NewRegressionTree()
		if err := m.Fit(d.X, d.Y); err != nil {
			t.Fatal(err)
		}
		want := refTree(d.X, m.yScale.TransformAll(d.Y), identityRows(d.Len()),
			treeConfig{maxDepth: m.MaxDepth, minLeaf: m.MinLeaf}, nil)
		if err := sameTree(m.root, want, "root"); err != nil {
			t.Fatal(err)
		}
	})

	for _, jobs := range []int{1, 8} {
		t.Run(fmt.Sprintf("gbm/jobs=%d", jobs), func(t *testing.T) {
			m := NewGradientBoosting()
			m.NumRounds = 20
			m.Jobs = jobs
			if err := m.Fit(d.X, d.Y); err != nil {
				t.Fatal(err)
			}
			// Boost again with reference trees and compare every stage.
			Ys := m.yScale.TransformAll(d.Y)
			n, dy := d.Len(), len(Ys[0])
			cfg := treeConfig{maxDepth: m.MaxDepth, minLeaf: m.MinLeaf}
			pred := make([][]float64, n)
			for i := range pred {
				pred[i] = slices.Clone(m.base)
			}
			resid := make([][]float64, n)
			for round := range m.NumRounds {
				for k := range dy {
					for i := range resid {
						resid[i] = []float64{Ys[i][k] - pred[i][k]}
					}
					want := refTree(d.X, resid, identityRows(n), cfg, nil)
					if err := sameTree(m.stages[round][k], want, fmt.Sprintf("round %d output %d: root", round, k)); err != nil {
						t.Fatal(err)
					}
					for i, x := range d.X {
						pred[i][k] += m.LR * want.predict(x)[0]
					}
				}
			}
		})
	}

	t.Run("random_forest", func(t *testing.T) {
		m := NewRandomForest(5)
		m.NumTrees = 8
		if err := m.Fit(d.X, d.Y); err != nil {
			t.Fatal(err)
		}
		Ys := m.yScale.TransformAll(d.Y)
		n := d.Len()
		cfg := treeConfig{maxDepth: m.MaxDepth, minLeaf: m.MinLeaf, maxFeatures: 4} // ceil(6 × 2/3): a strict subset
		for tr := range m.NumTrees {
			rng := rand.New(rand.NewSource(m.seed + int64(tr)*7919))
			rows := make([]int32, n)
			seen := map[int32]bool{}
			for i := range rows {
				rows[i] = int32(rng.Intn(n))
				seen[rows[i]] = true
			}
			if len(seen) == n {
				t.Fatalf("tree %d: bootstrap sample has no duplicates", tr)
			}
			want := refTree(d.X, Ys, rows, cfg, rng)
			if err := sameTree(m.trees[tr], want, fmt.Sprintf("tree %d: root", tr)); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// BenchmarkFit fits each tree family once per iteration on the tie-heavy
// set, serially, so the number is the kernel's.
func BenchmarkFit(b *testing.B) {
	d := tieData(2048, 43)
	for _, name := range []string{"gbm", "random_forest", "tree"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				m, _ := NewByName(name, 1)
				setJobs(m, 1)
				if err := m.Fit(d.X, d.Y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
