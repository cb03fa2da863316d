package ml

import (
	"cmp"
	"math/rand"
	"slices"
)

// treeNode is one node of a multi-output CART regression tree.
type treeNode struct {
	feature   int
	threshold float64
	left      *treeNode
	right     *treeNode
	value     []float64 // leaf mean (nil for internal nodes)
}

func (n *treeNode) isLeaf() bool { return n.value != nil }

func (n *treeNode) predict(x []float64) []float64 {
	for !n.isLeaf() {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

func (n *treeNode) count() int {
	if n == nil {
		return 0
	}
	return 1 + n.left.count() + n.right.count()
}

// treeConfig bounds tree growth.
type treeConfig struct {
	maxDepth    int
	minLeaf     int
	maxFeatures int // 0 = all; otherwise random subset per split
}

// columns copies X column-major: cols[f][r] = X[r][f]. The split scan reads
// one feature of many rows, so a column is one contiguous array.
func columns(X [][]float64) [][]float64 {
	d := len(X[0])
	flat := make([]float64, d*len(X))
	cols := make([][]float64, d)
	for f := range cols {
		cols[f] = flat[f*len(X) : (f+1)*len(X)]
	}
	for r, x := range X {
		for f, v := range x {
			cols[f][r] = v
		}
	}
	return cols
}

// flatten copies Y row-major into one array: y[r*dy+k] = Y[r][k].
func flatten(Y [][]float64) []float64 {
	dy := len(Y[0])
	y := make([]float64, len(Y)*dy)
	for r, row := range Y {
		copy(y[r*dy:], row)
	}
	return y
}

// presorter sorts samples of X's rows by every feature. It ranks each
// column's distinct values once; a sample is then counting-sorted by rank
// in O(len(sample)) per feature, which keeps tied rows in their order in
// the sample. It is the only sort a tree runs.
type presorter struct {
	rank  [][]int32 // rank[f][r]: X[r][f]'s rank among column f's distinct values
	width []int     // distinct values per column
}

// newPresorter ranks the columns of X.
func newPresorter(cols [][]float64) *presorter {
	p := &presorter{rank: make([][]int32, len(cols)), width: make([]int, len(cols))}
	byValue := make([]int32, len(cols[0]))
	for f, col := range cols {
		for r := range byValue {
			byValue[r] = int32(r)
		}
		slices.SortFunc(byValue, func(a, b int32) int { return cmp.Compare(col[a], col[b]) })
		rank := make([]int32, len(col))
		w := 0
		for i, r := range byValue {
			if i > 0 && col[r] != col[byValue[i-1]] {
				w++
			}
			rank[r] = int32(w)
		}
		p.rank[f], p.width[f] = rank, w+1
	}
	return p
}

// sort returns, for every feature f, the sample rows sorted by X[r][f],
// ties in sample order, as out[f*len(rows) : (f+1)*len(rows)].
func (p *presorter) sort(rows []int32) []int32 {
	n := len(rows)
	out := make([]int32, len(p.rank)*n)
	buf := make([]int32, slices.Max(p.width)+1)
	for f, rank := range p.rank {
		start := buf[:p.width[f]+1] // start[v]: where rank v's next row goes
		clear(start)
		for _, r := range rows {
			start[rank[r]+1]++
		}
		for i := 1; i < len(start); i++ {
			start[i] += start[i-1]
		}
		ord := out[f*n : (f+1)*n]
		for _, r := range rows {
			ord[start[rank[r]]] = r
			start[rank[r]]++
		}
	}
	return out
}

// treeBuilder grows one variance-reduction CART from presorted rows. A node
// owns the segment [lo, hi) of rows and the same segment of every feature's
// order; a split stable-partitions each segment in place, so both children
// inherit their rows in sample order and their features sorted by
// (value, position in the sample) with no further sort. Targets must be
// pre-standardized by the caller so the summed SSE across outputs weighs
// each output equally. Every buffer is the builder's own: a builder grows
// one tree at a time, and nothing it holds outlives the fit.
type treeBuilder struct {
	cols  [][]float64 // cols[f][r]: shared, read-only
	y     []float64   // y[r*dy+k]: the targets, read-only
	dy, n int         // outputs; sample length
	cfg   treeConfig
	rng   *rand.Rand // draws feature subsets; nil when cfg.maxFeatures is 0

	rows  []int32 // the sample, each node's rows in sample order
	order []int32 // order[f*n+lo : f*n+hi]: the node's rows sorted by feature f
	left  []bool  // by row of X: goes left at the split being applied
	spill []int32 // a partition's right side

	mean, sum, sumSq, totSum, totSq []float64
	features                        []int

	// leaves lists the leaves grown since the caller last emptied it, each
	// with its segment of rows: the rows the leaf predicts for. A nil list
	// is not kept; a caller that reads it sets it non-nil.
	leaves []leafSpan
}

// leafSpan is a leaf and its segment [lo, hi) of the builder's rows.
type leafSpan struct {
	lo, hi int
	node   *treeNode
}

// newTreeBuilder makes a builder over the sample rows and its presorted
// order (presorter.sort), both of which the builder owns and consumes: a tree
// grown from them leaves them partitioned.
func newTreeBuilder(cols [][]float64, y []float64, dy int, cfg treeConfig, rng *rand.Rand, rows, order []int32) *treeBuilder {
	return &treeBuilder{
		cols: cols, y: y, dy: dy, n: len(rows), cfg: cfg, rng: rng,
		rows:     rows,
		order:    order,
		left:     make([]bool, len(cols[0])),
		spill:    make([]int32, len(rows)),
		mean:     make([]float64, dy),
		sum:      make([]float64, dy),
		sumSq:    make([]float64, dy),
		totSum:   make([]float64, dy),
		totSq:    make([]float64, dy),
		features: make([]int, len(cols)),
	}
}

// grow builds the subtree over the sample segment [lo, hi). Nodes grow in
// pre-order, left before right, so a forest's feature draws follow the same
// stream at any worker count.
func (b *treeBuilder) grow(lo, hi, depth int) *treeNode {
	rows := b.rows[lo:hi]
	b.nodeMean(rows)
	if depth >= b.cfg.maxDepth || len(rows) < 2*b.cfg.minLeaf {
		return b.leafAt(lo, hi)
	}
	parentSSE := b.sse(rows)
	s := split{feature: -1, score: parentSSE}
	for _, f := range b.drawFeatures() {
		b.scan(f, b.order[f*b.n+lo:f*b.n+hi], &s)
	}
	if s.feature < 0 || parentSSE-s.score < 1e-12 {
		return b.leafAt(lo, hi)
	}

	col := b.cols[s.feature]
	nl := 0
	for _, r := range rows {
		l := col[r] <= s.threshold
		b.left[r] = l
		if l {
			nl++
		}
	}
	if nl == 0 || nl == len(rows) {
		return b.leafAt(lo, hi)
	}
	b.partition(rows)
	// A child scans its orders only if it may split.
	if depth+1 < b.cfg.maxDepth && (nl >= 2*b.cfg.minLeaf || len(rows)-nl >= 2*b.cfg.minLeaf) {
		for f := range b.cols {
			b.partition(b.order[f*b.n+lo : f*b.n+hi])
		}
	}
	mid := lo + nl
	return &treeNode{
		feature:   s.feature,
		threshold: s.threshold,
		left:      b.grow(lo, mid, depth+1),
		right:     b.grow(mid, hi, depth+1),
	}
}

// partition stably moves seg's left-going rows before its right-going ones.
func (b *treeBuilder) partition(seg []int32) {
	spill := b.spill[:0]
	i := 0
	for _, r := range seg {
		if b.left[r] {
			seg[i] = r
			i++
		} else {
			spill = append(spill, r)
		}
	}
	copy(seg[i:], spill)
}

// nodeMean sets b.mean to the rows' mean target, summed in row order.
func (b *treeBuilder) nodeMean(rows []int32) {
	clear(b.mean)
	for _, r := range rows {
		for k, v := range b.y[int(r)*b.dy : int(r+1)*b.dy] {
			b.mean[k] += v
		}
	}
	for k := range b.mean {
		b.mean[k] /= float64(len(rows))
	}
}

// leaf returns a leaf holding the current node's mean.
func (b *treeBuilder) leaf() *treeNode {
	return &treeNode{value: slices.Clone(b.mean)}
}

// leafAt returns the leaf of the segment [lo, hi) and lists it in b.leaves
// when that list is kept.
func (b *treeBuilder) leafAt(lo, hi int) *treeNode {
	n := b.leaf()
	if b.leaves != nil {
		b.leaves = append(b.leaves, leafSpan{lo: lo, hi: hi, node: n})
	}
	return n
}

// sse is the rows' summed squared error around b.mean.
func (b *treeBuilder) sse(rows []int32) float64 {
	s := 0.0
	for _, r := range rows {
		for k, v := range b.y[int(r)*b.dy : int(r+1)*b.dy] {
			d := v - b.mean[k]
			s += d * d
		}
	}
	return s
}

// drawFeatures returns the features a node scans: all of them, or a fresh
// random subset of cfg.maxFeatures drawn from the identity order.
func (b *treeBuilder) drawFeatures() []int {
	features := b.features
	for i := range features {
		features[i] = i
	}
	if d := len(features); b.cfg.maxFeatures > 0 && b.cfg.maxFeatures < d {
		b.rng.Shuffle(d, func(i, j int) { features[i], features[j] = features[j], features[i] })
		features = features[:b.cfg.maxFeatures]
	}
	return features
}

// split is the best split found so far at a node.
type split struct {
	feature   int // -1: none beats the parent
	threshold float64
	score     float64 // summed SSE of the two children
}

// scan walks one feature's sorted rows and records in s any split point
// whose children's summed SSE beats s.score by more than 1e-12. Prefix sums
// give each point's SSE in O(dy): SSE = sumSq - sum^2/n, summed across
// outputs.
func (b *treeBuilder) scan(f int, ord []int32, s *split) {
	col, dy := b.cols[f], b.dy
	sum, sumSq, totSum, totSq := b.sum, b.sumSq, b.totSum, b.totSq
	clear(sum)
	clear(sumSq)
	clear(totSum)
	clear(totSq)
	for _, r := range ord {
		for k, v := range b.y[int(r)*dy : int(r+1)*dy] {
			totSum[k] += v
			totSq[k] += v * v
		}
	}
	n := len(ord)
	for i := 0; i < n-1; i++ {
		r := ord[i]
		for k, v := range b.y[int(r)*dy : int(r+1)*dy] {
			sum[k] += v
			sumSq[k] += v * v
		}
		if i+1 < b.cfg.minLeaf || n-i-1 < b.cfg.minLeaf {
			continue
		}
		if col[r] == col[ord[i+1]] {
			continue
		}
		nl, nr := float64(i+1), float64(n-i-1)
		score := 0.0
		for k := 0; k < dy; k++ {
			ls := sumSq[k] - sum[k]*sum[k]/nl
			rsum := totSum[k] - sum[k]
			rs := (totSq[k] - sumSq[k]) - rsum*rsum/nr
			score += ls + rs
		}
		if score < s.score-1e-12 {
			s.score = score
			s.feature = f
			s.threshold = (col[r] + col[ord[i+1]]) / 2
		}
	}
}

// RegressionTree is a single multi-output CART tree (also the unit the
// forest and GBM are built from). With every feature scanned at every node
// it draws no randomness.
type RegressionTree struct {
	MaxDepth int
	MinLeaf  int

	root   *treeNode
	yScale *Scaler
}

// NewRegressionTree returns a CART regression tree.
func NewRegressionTree() *RegressionTree {
	return &RegressionTree{MaxDepth: 12, MinLeaf: 2}
}

// Fit implements Model.
func (m *RegressionTree) Fit(X, Y [][]float64) error {
	if err := checkFit(X, Y); err != nil {
		return err
	}
	m.yScale = FitScaler(Y)
	cols, rows := columns(X), identityRows(len(X))
	b := newTreeBuilder(cols, flatten(m.yScale.TransformAll(Y)), len(Y[0]),
		treeConfig{maxDepth: m.MaxDepth, minLeaf: m.MinLeaf}, nil, rows, newPresorter(cols).sort(rows))
	m.root = b.grow(0, len(rows), 0)
	return nil
}

// identityRows is the sample 0, 1, ..., n-1.
func identityRows(n int) []int32 {
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	return rows
}

// Predict implements Model.
func (m *RegressionTree) Predict(x []float64) []float64 {
	return m.yScale.Inverse(m.root.predict(x))
}

// Name implements Model.
func (m *RegressionTree) Name() string { return "tree" }

// SizeBytes implements Model.
func (m *RegressionTree) SizeBytes() int { return m.root.count() * 48 }
