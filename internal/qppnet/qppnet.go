// Package qppnet implements the QPPNet baseline (Marcus & Papaemmanouil,
// VLDB 2019) the paper compares MB2 against (Sec 8.3): a plan-structured
// neural network where each operator type has its own neural unit whose
// inputs are the operator's plan features concatenated with its children's
// hidden output vectors, trained end-to-end on observed query latency.
//
// As in the paper's adaptation, disk-oriented features are dropped and the
// operator-level tree structure follows our engine's pipelines. QPPNet
// needs the training data to contain every operator combination appearing
// in test plans, and it consumes raw plan features — the properties that
// limit its generalization to other dataset sizes and workloads, which
// Fig 7 measures.
package qppnet

import (
	"fmt"
	"math"
	"math/rand"

	"mb2/internal/plan"
)

const (
	hiddenDim = 16 // neurons in each unit's hidden layer
	outDim    = 8  // data vector passed to the parent; element 0 is latency
	numFeats  = 5  // per-operator plan features
	maxKids   = 2
	inDim     = numFeats + maxKids*outDim
)

// opType names the operator-specific neural units.
func opType(n plan.Node) string {
	switch n.(type) {
	case *plan.SeqScanNode:
		return "seqscan"
	case *plan.IdxScanNode:
		return "idxscan"
	case *plan.HashJoinNode:
		return "hashjoin"
	case *plan.IndexJoinNode:
		return "idxjoin"
	case *plan.AggNode:
		return "agg"
	case *plan.SortNode:
		return "sort"
	case *plan.ProjectNode:
		return "project"
	case *plan.FilterNode:
		return "filter"
	case *plan.OutputNode:
		return "output"
	case *plan.InsertNode:
		return "insert"
	case *plan.UpdateNode:
		return "update"
	case *plan.DeleteNode:
		return "delete"
	default:
		return "other"
	}
}

// features extracts the raw plan features one unit consumes.
func features(n plan.Node) []float64 {
	e := n.Est()
	f := []float64{e.Rows, e.Distinct, 0, 0, 1}
	switch v := n.(type) {
	case *plan.SeqScanNode:
		if v.Filter != nil {
			f[2] = v.Filter.Ops()
		}
		f[3] = v.TableRows
	case *plan.IdxScanNode:
		f[2] = v.Loops
	case *plan.HashJoinNode:
		f[2] = float64(len(v.LeftKeys))
	case *plan.AggNode:
		f[2] = float64(len(v.GroupBy))
		f[3] = float64(len(v.Aggs))
	case *plan.SortNode:
		f[2] = float64(len(v.Keys))
		f[3] = float64(v.Limit)
	case *plan.ProjectNode:
		f[2] = float64(len(v.Exprs))
	case *plan.FilterNode:
		f[2] = v.Pred.Ops()
	}
	return f
}

// unit is one operator type's two-layer neural network.
type unit struct {
	w1 [][]float64 // hiddenDim x inDim
	b1 []float64
	w2 [][]float64 // outDim x hiddenDim
	b2 []float64

	// Adam state.
	mw1, vw1, mw2, vw2 [][]float64
	mb1, vb1, mb2, vb2 []float64
}

func newUnit(rng *rand.Rand) *unit {
	alloc := func(rows, cols int, scale float64) [][]float64 {
		m := make([][]float64, rows)
		for i := range m {
			m[i] = make([]float64, cols)
			for j := range m[i] {
				if scale > 0 {
					m[i][j] = rng.NormFloat64() * scale
				}
			}
		}
		return m
	}
	return &unit{
		w1:  alloc(hiddenDim, inDim, math.Sqrt(2.0/inDim)),
		b1:  make([]float64, hiddenDim),
		w2:  alloc(outDim, hiddenDim, math.Sqrt(2.0/hiddenDim)),
		b2:  make([]float64, outDim),
		mw1: alloc(hiddenDim, inDim, 0), vw1: alloc(hiddenDim, inDim, 0),
		mw2: alloc(outDim, hiddenDim, 0), vw2: alloc(outDim, hiddenDim, 0),
		mb1: make([]float64, hiddenDim), vb1: make([]float64, hiddenDim),
		mb2: make([]float64, outDim), vb2: make([]float64, outDim),
	}
}

// nodeState caches one node's forward pass for backprop.
type nodeState struct {
	node   plan.Node
	unit   *unit
	kids   []*nodeState
	input  []float64
	hidden []float64 // post-ReLU
	out    []float64
}

// Model is a trained QPPNet.
type Model struct {
	Epochs int
	LR     float64
	seed   int64

	units  map[string]*unit
	xStats [numFeats][2]float64 // per-feature mean/std from training plans
	yMean  float64
	yStd   float64
	step   int
}

// New returns an untrained QPPNet.
func New(seed int64) *Model {
	return &Model{Epochs: 80, LR: 2e-3, seed: seed, units: make(map[string]*unit)}
}

func (m *Model) normFeat(f []float64) []float64 {
	out := make([]float64, numFeats)
	for i := 0; i < numFeats; i++ {
		out[i] = (f[i] - m.xStats[i][0]) / m.xStats[i][1]
	}
	return out
}

func (m *Model) forward(n plan.Node, rng *rand.Rand) *nodeState {
	t := opType(n)
	u, ok := m.units[t]
	if !ok {
		u = newUnit(rng)
		m.units[t] = u
	}
	st := &nodeState{node: n, unit: u}
	input := make([]float64, inDim)
	copy(input, m.normFeat(features(n)))
	for i, c := range n.Children() {
		if i >= maxKids {
			break
		}
		kid := m.forward(c, rng)
		st.kids = append(st.kids, kid)
		copy(input[numFeats+i*outDim:], kid.out)
	}
	st.input = input
	st.hidden = make([]float64, hiddenDim)
	for h := 0; h < hiddenDim; h++ {
		s := u.b1[h]
		for j, v := range input {
			s += u.w1[h][j] * v
		}
		if s < 0 {
			s = 0
		}
		st.hidden[h] = s
	}
	st.out = make([]float64, outDim)
	for o := 0; o < outDim; o++ {
		s := u.b2[o]
		for h, v := range st.hidden {
			s += u.w2[o][h] * v
		}
		st.out[o] = s
	}
	return st
}

// backward propagates dL/d(out) through the node and its subtree, applying
// Adam updates immediately (per-sample SGD as in the reference
// implementation).
func (m *Model) backward(st *nodeState, gradOut []float64, lr float64) {
	u := st.unit
	// Through the output layer.
	gradHidden := make([]float64, hiddenDim)
	for o := 0; o < outDim; o++ {
		g := gradOut[o]
		if g == 0 {
			continue
		}
		for h := 0; h < hiddenDim; h++ {
			gradHidden[h] += u.w2[o][h] * g
			adam(&u.w2[o][h], &u.mw2[o][h], &u.vw2[o][h], g*st.hidden[h], lr, m.step)
		}
		adam(&u.b2[o], &u.mb2[o], &u.vb2[o], g, lr, m.step)
	}
	// Through ReLU + input layer.
	gradInput := make([]float64, inDim)
	for h := 0; h < hiddenDim; h++ {
		if st.hidden[h] <= 0 || gradHidden[h] == 0 {
			continue
		}
		g := gradHidden[h]
		for j := 0; j < inDim; j++ {
			gradInput[j] += u.w1[h][j] * g
			adam(&u.w1[h][j], &u.mw1[h][j], &u.vw1[h][j], g*st.input[j], lr, m.step)
		}
		adam(&u.b1[h], &u.mb1[h], &u.vb1[h], g, lr, m.step)
	}
	// Into the children.
	for i, kid := range st.kids {
		m.backward(kid, gradInput[numFeats+i*outDim:numFeats+(i+1)*outDim], lr)
	}
}

func adam(w, mm, vv *float64, g, lr float64, step int) {
	const b1, b2, eps = 0.9, 0.999, 1e-8
	*mm = b1**mm + (1-b1)*g
	*vv = b2**vv + (1-b2)*g*g
	mc := *mm / (1 - math.Pow(b1, float64(step)))
	vc := *vv / (1 - math.Pow(b2, float64(step)))
	*w -= lr * mc / (math.Sqrt(vc) + eps)
}

// Fit trains the network on (plan, latency-in-microseconds) pairs.
func (m *Model) Fit(plans []plan.Node, latencies []float64) error {
	if len(plans) == 0 || len(plans) != len(latencies) {
		return fmt.Errorf("qppnet: need matching plans and latencies")
	}
	// Feature statistics over every operator in the training plans.
	var sums, sqs [numFeats]float64
	count := 0.0
	for _, p := range plans {
		plan.Walk(p, func(n plan.Node) {
			f := features(n)
			for i := 0; i < numFeats; i++ {
				sums[i] += f[i]
				sqs[i] += f[i] * f[i]
			}
			count++
		})
	}
	for i := 0; i < numFeats; i++ {
		mean := sums[i] / count
		std := math.Sqrt(sqs[i]/count - mean*mean)
		if std < 1e-9 {
			std = 1
		}
		m.xStats[i] = [2]float64{mean, std}
	}
	// Target statistics (log space stabilizes the wide latency range).
	ys := make([]float64, len(latencies))
	var ySum, ySq float64
	for i, v := range latencies {
		ys[i] = math.Log1p(v)
		ySum += ys[i]
		ySq += ys[i] * ys[i]
	}
	m.yMean = ySum / float64(len(ys))
	m.yStd = math.Sqrt(ySq/float64(len(ys)) - m.yMean*m.yMean)
	if m.yStd < 1e-9 {
		m.yStd = 1
	}

	rng := rand.New(rand.NewSource(m.seed))
	idx := rng.Perm(len(plans))
	for epoch := 0; epoch < m.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for _, i := range idx {
			m.step++
			st := m.forward(plans[i], rng)
			target := (ys[i] - m.yMean) / m.yStd
			grad := make([]float64, outDim)
			grad[0] = 2 * (st.out[0] - target)
			m.backward(st, grad, m.LR)
		}
	}
	return nil
}

// Predict returns the predicted latency in microseconds for a plan.
func (m *Model) Predict(p plan.Node) float64 {
	rng := rand.New(rand.NewSource(m.seed))
	st := m.forward(p, rng)
	y := st.out[0]*m.yStd + m.yMean
	lat := math.Expm1(y)
	if lat < 0 {
		lat = 0
	}
	return lat
}
