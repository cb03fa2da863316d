package ml

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// synthDataset generates y0 = 3x0 - 2x1 + 5, y1 = x0*x1 with optional noise.
func synthDataset(n int, noise float64, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := Dataset{}
	for i := 0; i < n; i++ {
		x0 := rng.Float64() * 10
		x1 := rng.Float64() * 10
		y0 := 3*x0 - 2*x1 + 5 + noise*rng.NormFloat64()
		y1 := x0*x1 + noise*rng.NormFloat64()
		d.X = append(d.X, []float64{x0, x1})
		d.Y = append(d.Y, []float64{y0, y1})
	}
	return d
}

func fitAndScore(t *testing.T, m Model, train, test Dataset) float64 {
	t.Helper()
	if err := m.Fit(train.X, train.Y); err != nil {
		t.Fatalf("%s fit: %v", m.Name(), err)
	}
	return AvgRelError(PredictAll(m, test.X), test.Y, 1)
}

func TestLinearRecoversCoefficients(t *testing.T) {
	d := synthDataset(500, 0, 1)
	m := NewLinearRegression()
	if err := m.Fit(d.X, d.Y); err != nil {
		t.Fatal(err)
	}
	// Output 0 is exactly linear: coefficients must be recovered.
	w := m.W[0]
	if math.Abs(w[0]-3) > 1e-6 || math.Abs(w[1]+2) > 1e-6 || math.Abs(w[2]-5) > 1e-6 {
		t.Fatalf("coefficients = %v, want [3 -2 5]", w)
	}
}

func TestHuberRobustToOutliers(t *testing.T) {
	d := synthDataset(400, 0.01, 2)
	// Corrupt 5% of rows with huge outliers.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		d.Y[rng.Intn(d.Len())][0] += 1e5
	}
	test := synthDataset(100, 0, 4)

	lin := NewLinearRegression()
	hub := NewHuberRegression()
	linErr := fitAndScore(t, lin, d, test)
	hubErr := fitAndScore(t, hub, d, test)
	if hubErr >= linErr {
		t.Fatalf("huber (%v) must beat plain least squares (%v) under outliers", hubErr, linErr)
	}
}

// linearOnly keeps just the linear output of the synthetic dataset.
func linearOnly(d Dataset) Dataset {
	out := Dataset{X: d.X, Y: make([][]float64, d.Len())}
	for i := range d.Y {
		out.Y[i] = d.Y[i][:1]
	}
	return out
}

func TestSVRFitsLinearTarget(t *testing.T) {
	d := linearOnly(synthDataset(600, 0.05, 5))
	test := linearOnly(synthDataset(150, 0, 6))
	m := NewSVR(7)
	err := fitAndScore(t, m, d, test)
	if err > 0.15 {
		t.Fatalf("svr rel error = %v", err)
	}
}

func TestKernelRegressionLocalFit(t *testing.T) {
	d := synthDataset(800, 0.05, 8)
	test := synthDataset(100, 0, 9)
	m := NewKernelRegression(10)
	err := fitAndScore(t, m, d, test)
	if err > 0.35 {
		t.Fatalf("kernel rel error = %v", err)
	}
}

func TestTreeAndForestFitNonlinear(t *testing.T) {
	d := synthDataset(1500, 0.05, 11)
	test := synthDataset(200, 0, 12)
	tree := NewRegressionTree()
	forest := NewRandomForest(13)
	treeErr := fitAndScore(t, tree, d, test)
	forestErr := fitAndScore(t, forest, d, test)
	if treeErr > 0.3 {
		t.Fatalf("tree rel error = %v", treeErr)
	}
	if forestErr > 0.2 {
		t.Fatalf("forest rel error = %v", forestErr)
	}
}

func TestGBMFitsNonlinear(t *testing.T) {
	d := synthDataset(1200, 0.05, 14)
	test := synthDataset(200, 0, 15)
	m := NewGradientBoosting()
	err := fitAndScore(t, m, d, test)
	if err > 0.2 {
		t.Fatalf("gbm rel error = %v", err)
	}
}

func TestNeuralNetworkFits(t *testing.T) {
	d := synthDataset(800, 0.05, 17)
	test := synthDataset(150, 0, 18)
	m := NewNeuralNetwork(19)
	err := fitAndScore(t, m, d, test)
	if err > 0.35 {
		t.Fatalf("nn rel error = %v", err)
	}
}

// TestModelsDeterministic fits every family, and the lone tree, twice on
// the same matrices: Fit leaves X and Y exactly as it found them, and the
// two fits predict identically.
func TestModelsDeterministic(t *testing.T) {
	x := []float64{3.3, 7.7}
	d := synthDataset(300, 0.1, 20)
	clone := func(m [][]float64) [][]float64 {
		out := make([][]float64, len(m))
		for i, row := range m {
			out[i] = slices.Clone(row)
		}
		return out
	}
	X0, Y0 := clone(d.X), clone(d.Y)
	for _, name := range append(slices.Clone(AlgorithmNames), "tree") {
		var preds [2][]float64
		for i := range preds {
			m, _ := NewByName(name, 99)
			if err := m.Fit(d.X, d.Y); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(d.X, X0) || !reflect.DeepEqual(d.Y, Y0) {
				t.Fatalf("%s: Fit mutated its input", name)
			}
			preds[i] = m.Predict(x)
		}
		if !reflect.DeepEqual(preds[0], preds[1]) {
			t.Errorf("%s not deterministic: %v vs %v", name, preds[0], preds[1])
		}
	}
}

func TestAllModelsReportSize(t *testing.T) {
	d := synthDataset(200, 0.1, 21)
	for _, name := range AlgorithmNames {
		m, err := NewByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Fit(d.X, d.Y); err != nil {
			t.Fatal(err)
		}
		if m.SizeBytes() <= 0 {
			t.Errorf("%s SizeBytes = %d", name, m.SizeBytes())
		}
	}
}

func TestFitRejectsEmpty(t *testing.T) {
	for _, name := range AlgorithmNames {
		m, _ := NewByName(name, 1)
		if err := m.Fit(nil, nil); err == nil {
			t.Errorf("%s accepted empty data", name)
		}
	}
	if _, err := NewByName("bogus", 1); err == nil {
		t.Fatal("unknown algorithm must error")
	}
}

func TestSplitSizesAndDisjoint(t *testing.T) {
	d := synthDataset(100, 0, 22)
	train, test := d.Split(0.8, 1)
	if train.Len() != 80 || test.Len() != 20 {
		t.Fatalf("split sizes %d/%d", train.Len(), test.Len())
	}
}

func TestSelectAndTrainPicksReasonableModel(t *testing.T) {
	d := synthDataset(600, 0.02, 23)
	m, report, err := SelectAndTrain(d, []string{"linear", "random_forest", "gbm"}, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if report.Best == "" || len(report.Candidates) != 3 {
		t.Fatalf("report = %+v", report)
	}
	// y1 = x0*x1 is nonlinear; a tree ensemble must win over pure linear.
	if report.Best == "linear" {
		t.Fatalf("linear should not win on a nonlinear target: %+v", report.Candidates)
	}
	test := synthDataset(100, 0, 24)
	if e := AvgRelError(PredictAll(m, test.X), test.Y, 1); e > 0.25 {
		t.Fatalf("selected model rel error = %v", e)
	}
}

func TestParallelTrainingMatchesSerialML(t *testing.T) {
	d := synthDataset(400, 0.02, 29)
	probe := synthDataset(50, 0, 30)

	// Ensembles: identical trees at any worker count.
	for _, name := range []string{"random_forest", "gbm"} {
		serial, _ := NewByName(name, 7)
		parallel, _ := NewByName(name, 7)
		setJobs(serial, 1)
		setJobs(parallel, 8)
		if err := serial.Fit(d.X, d.Y); err != nil {
			t.Fatal(err)
		}
		if err := parallel.Fit(d.X, d.Y); err != nil {
			t.Fatal(err)
		}
		for i, x := range probe.X {
			s, p := serial.Predict(x), parallel.Predict(x)
			for k := range s {
				if s[k] != p[k] {
					t.Fatalf("%s: prediction %d output %d diverges: %v vs %v", name, i, k, s[k], p[k])
				}
			}
		}
	}

	// Selection: same winner, same candidate errors.
	_, rs, err := SelectAndTrain(d, []string{"linear", "random_forest", "gbm"}, 7, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, rp, err := SelectAndTrain(d, []string{"linear", "random_forest", "gbm"}, 7, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rs, rp) {
		t.Fatalf("selection reports diverge:\nserial   %+v\nparallel %+v", rs, rp)
	}
}

func TestErrorMetrics(t *testing.T) {
	pred := [][]float64{{10}, {20}}
	act := [][]float64{{20}, {20}}
	if got := AvgRelError(pred, act, 1); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("rel error = %v, want 0.25", got)
	}
	if AvgRelError(nil, nil, 1) != 0 {
		t.Fatal("empty metrics must be 0")
	}
}

func TestScalerRoundTrip(t *testing.T) {
	f := func(a, b, c float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) ||
			math.IsNaN(c) || math.IsInf(c, 0) {
			return true
		}
		a, b, c = math.Mod(a, 1e6), math.Mod(b, 1e6), math.Mod(c, 1e6)
		X := [][]float64{{a}, {b}, {c}}
		s := FitScaler(X)
		for _, row := range X {
			back := s.Inverse(s.Transform(row))
			if math.Abs(back[0]-row[0]) > 1e-6*(1+math.Abs(row[0])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScalerConstantColumn(t *testing.T) {
	X := [][]float64{{5, 1}, {5, 2}, {5, 3}}
	s := FitScaler(X)
	got := s.Transform([]float64{5, 2})
	if math.IsNaN(got[0]) || math.IsInf(got[0], 0) {
		t.Fatalf("constant column produced %v", got[0])
	}
}

func TestSolveLinearKnownSystem(t *testing.T) {
	A := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	w := solveLinear(A, b)
	// 2x + y = 5; x + 3y = 10 → x = 1, y = 3.
	if math.Abs(w[0]-1) > 1e-9 || math.Abs(w[1]-3) > 1e-9 {
		t.Fatalf("solution = %v", w)
	}
}

func TestTreeHandlesConstantFeatures(t *testing.T) {
	X := [][]float64{{1, 5}, {1, 5}, {1, 5}, {1, 5}}
	Y := [][]float64{{1}, {2}, {3}, {4}}
	m := NewRegressionTree()
	if err := m.Fit(X, Y); err != nil {
		t.Fatal(err)
	}
	got := m.Predict([]float64{1, 5})
	if math.Abs(got[0]-2.5) > 1e-9 {
		t.Fatalf("constant-feature tree predicts %v, want mean 2.5", got)
	}
}

func TestPermutationImportance(t *testing.T) {
	// y depends strongly on x0, weakly on x1, and not at all on x2.
	rng := rand.New(rand.NewSource(31))
	d := Dataset{}
	for i := 0; i < 600; i++ {
		x0 := rng.Float64() * 10
		x1 := rng.Float64() * 10
		x2 := rng.Float64() * 10
		d.X = append(d.X, []float64{x0, x1, x2})
		d.Y = append(d.Y, []float64{20*x0 + x1})
	}
	m := NewGradientBoosting()
	if err := m.Fit(d.X, d.Y); err != nil {
		t.Fatal(err)
	}
	imp := PermutationImportance(m, d, 1, 1)
	if len(imp) != 3 {
		t.Fatalf("importance width = %d", len(imp))
	}
	if !(imp[0] > imp[1] && imp[1] > imp[2]) {
		t.Fatalf("importance order wrong: %v", imp)
	}
	if imp[2] > imp[0]*0.1+1e-9 {
		t.Fatalf("irrelevant feature scored %v vs %v", imp[2], imp[0])
	}
	if PermutationImportance(m, Dataset{}, 1, 1) != nil {
		t.Fatal("empty dataset must yield nil")
	}
}
