package ml

import (
	"math"
	"math/rand"

	"mb2/internal/par"
)

// RandomForest is a bagged ensemble of multi-output CART trees with random
// feature subsets per split — the paper's best performer for most OUs
// (Sec 8.2; 50 estimators).
type RandomForest struct {
	NumTrees int
	MaxDepth int
	MinLeaf  int
	// Jobs bounds tree-training parallelism (<= 0 selects GOMAXPROCS, 1
	// is serial). Each tree's RNG derives from (seed, tree index) alone,
	// so the fitted forest is identical at any worker count.
	Jobs int
	seed int64

	trees  []*treeNode
	yScale *Scaler
}

// SetJobs bounds Fit's worker pool.
func (m *RandomForest) SetJobs(jobs int) { m.Jobs = jobs }

// NewRandomForest returns a forest with the paper's 50 estimators.
func NewRandomForest(seed int64) *RandomForest {
	return &RandomForest{NumTrees: 50, MaxDepth: 12, MinLeaf: 2, seed: seed}
}

// Fit implements Model.
func (m *RandomForest) Fit(X, Y [][]float64) error {
	if err := checkFit(X, Y); err != nil {
		return err
	}
	m.yScale = FitScaler(Y)
	Ys := m.yScale.TransformAll(Y)
	n := len(X)
	d := len(X[0])
	maxFeatures := int(math.Ceil(float64(d) * 2 / 3))
	if maxFeatures < 1 {
		maxFeatures = 1
	}
	cfg := treeConfig{maxDepth: m.MaxDepth, minLeaf: m.MinLeaf, maxFeatures: maxFeatures}

	// Trees share the columns, their ranks and the targets read-only; each
	// presorts its own bootstrap sample and writes only its own slot.
	cols, y, dy := columns(X), flatten(Ys), len(Ys[0])
	ps := newPresorter(cols)
	m.trees = make([]*treeNode, m.NumTrees)
	par.Do(m.Jobs, m.NumTrees, func(t int) {
		rng := rand.New(rand.NewSource(m.seed + int64(t)*7919))
		rows := make([]int32, n) // bootstrap sample
		for i := range rows {
			rows[i] = int32(rng.Intn(n))
		}
		m.trees[t] = newTreeBuilder(cols, y, dy, cfg, rng, rows, ps.sort(rows)).grow(0, n, 0)
	})
	return nil
}

// Predict implements Model.
func (m *RandomForest) Predict(x []float64) []float64 {
	dy := len(m.yScale.Mean)
	sum := make([]float64, dy)
	for _, t := range m.trees {
		for k, v := range t.predict(x) {
			sum[k] += v
		}
	}
	for k := range sum {
		sum[k] /= float64(len(m.trees))
	}
	return m.yScale.Inverse(sum)
}

// Name implements Model.
func (m *RandomForest) Name() string { return "random_forest" }

// SizeBytes implements Model.
func (m *RandomForest) SizeBytes() int {
	n := 0
	for _, t := range m.trees {
		n += t.count() * 48
	}
	return n
}

// GradientBoosting is a per-output gradient-boosted ensemble of shallow
// regression trees with squared-error loss. Every tree scans every feature,
// so fitting draws no randomness.
type GradientBoosting struct {
	NumRounds int
	MaxDepth  int
	MinLeaf   int
	LR        float64
	// Jobs bounds per-output tree-training parallelism within each
	// boosting round (<= 0 selects GOMAXPROCS, 1 is serial). Outputs are
	// independent within a round — output k's residuals and predictions
	// touch only column k — so the fitted model is identical at any
	// worker count.
	Jobs int

	base   []float64
	stages [][]*treeNode // [round][output]
	yScale *Scaler
}

// SetJobs bounds Fit's worker pool.
func (m *GradientBoosting) SetJobs(jobs int) { m.Jobs = jobs }

// NewGradientBoosting returns a GBM tuned for the OU-model workloads.
func NewGradientBoosting() *GradientBoosting {
	return &GradientBoosting{NumRounds: 60, MaxDepth: 4, MinLeaf: 4, LR: 0.15}
}

// Fit implements Model.
func (m *GradientBoosting) Fit(X, Y [][]float64) error {
	if err := checkFit(X, Y); err != nil {
		return err
	}
	m.yScale = FitScaler(Y)
	Ys := m.yScale.TransformAll(Y)
	n, dy := len(X), len(Ys[0])

	m.base = make([]float64, dy)
	for _, y := range Ys {
		for k, v := range y {
			m.base[k] += v
		}
	}
	for k := range m.base {
		m.base[k] /= float64(n)
	}

	// X is the same for every tree, so it is presorted once; each tree
	// grows from a copy in its output's builder.
	cols, rows := columns(X), identityRows(n)
	order := newPresorter(cols).sort(rows)
	cfg := treeConfig{maxDepth: m.MaxDepth, minLeaf: m.MinLeaf}

	// One prediction column, residual buffer and builder per output so the
	// outputs of a round can train concurrently; rounds remain sequential
	// (each consumes the previous round's predictions). Within a round,
	// output k reads and writes only its own buffers, so parallel outputs
	// reproduce the serial result exactly.
	m.stages = make([][]*treeNode, m.NumRounds)
	pred := make([][]float64, dy)
	resid := make([][]float64, dy)
	builders := make([]*treeBuilder, dy)
	for k := range builders {
		pred[k] = make([]float64, n)
		for i := range pred[k] {
			pred[k][i] = m.base[k]
		}
		resid[k] = make([]float64, n)
		builders[k] = newTreeBuilder(cols, resid[k], 1, cfg, nil, make([]int32, n), make([]int32, len(order)))
		builders[k].leaves = []leafSpan{} // kept: Fit adds each leaf to its rows
	}
	for round := 0; round < m.NumRounds; round++ {
		m.stages[round] = make([]*treeNode, dy)
		par.Do(m.Jobs, dy, func(k int) {
			pk, rk, b := pred[k], resid[k], builders[k]
			for i := range rk {
				rk[i] = Ys[i][k] - pk[i]
			}
			copy(b.rows, rows)
			copy(b.order, order)
			b.leaves = b.leaves[:0]
			m.stages[round][k] = b.grow(0, n, 0)
			// The builder left each leaf's rows in its segment: the rows
			// the tree's predict would walk to that leaf.
			for _, l := range b.leaves {
				for _, r := range b.rows[l.lo:l.hi] {
					pk[r] += m.LR * l.node.value[0]
				}
			}
		})
	}
	return nil
}

// Predict implements Model.
func (m *GradientBoosting) Predict(x []float64) []float64 {
	out := append([]float64(nil), m.base...)
	for _, stage := range m.stages {
		for k, tr := range stage {
			out[k] += m.LR * tr.predict(x)[0]
		}
	}
	return m.yScale.Inverse(out)
}

// Name implements Model.
func (m *GradientBoosting) Name() string { return "gbm" }

// SizeBytes implements Model.
func (m *GradientBoosting) SizeBytes() int {
	n := 8 * len(m.base)
	for _, stage := range m.stages {
		for _, t := range stage {
			n += t.count() * 48
		}
	}
	return n
}
