package ml

import (
	"fmt"
	"sort"

	"mb2/internal/par"
)

// AlgorithmNames lists the seven families MB2 supports (Sec 6.4).
var AlgorithmNames = []string{
	"linear", "huber", "svr", "kernel", "random_forest", "gbm", "neural_net",
}

// NewByName constructs one model by family name.
func NewByName(name string, seed int64) (Model, error) {
	switch name {
	case "linear":
		return NewLinearRegression(), nil
	case "huber":
		return NewHuberRegression(), nil
	case "svr":
		return NewSVR(seed), nil
	case "kernel":
		return NewKernelRegression(seed), nil
	case "tree":
		return NewRegressionTree(seed), nil
	case "random_forest":
		return NewRandomForest(seed), nil
	case "gbm":
		return NewGradientBoosting(seed), nil
	case "neural_net":
		return NewNeuralNetwork(seed), nil
	default:
		return nil, fmt.Errorf("ml: unknown algorithm %q", name)
	}
}

// CandidateResult is one family's validation outcome during selection.
type CandidateResult struct {
	Name  string
	Error float64
}

// SelectionReport records how the best model was chosen.
type SelectionReport struct {
	Best       string
	Candidates []CandidateResult
}

// jobsSetter is implemented by models whose training parallelizes
// internally (the tree ensembles).
type jobsSetter interface{ SetJobs(jobs int) }

// setJobs propagates a worker-pool bound into models that support it.
func setJobs(m Model, jobs int) {
	if s, ok := m.(jobsSetter); ok {
		s.SetJobs(jobs)
	}
}

// SelectAndTrain implements MB2's model-selection procedure (Sec 6.4): fit
// every candidate family on the 80% train split, score it on the 20% test
// split by average relative error, pick the winner, then refit the winner
// on all available data. relFloor guards relative error for tiny labels.
//
// Candidates fit on jobs workers (<= 0 selects GOMAXPROCS, 1 is serial);
// each candidate's seed and the report's candidate order depend only on
// the candidate list, so the selection is identical at any worker count.
func SelectAndTrain(data Dataset, candidates []string, seed int64, relFloor float64, jobs int) (Model, SelectionReport, error) {
	if data.Len() == 0 {
		return nil, SelectionReport{}, ErrNoData
	}
	if len(candidates) == 0 {
		candidates = AlgorithmNames
	}
	train, test := data.Split(0.8, seed)
	if test.Len() == 0 {
		train = data
		test = data
	}

	results := make([]CandidateResult, len(candidates))
	errs := make([]error, len(candidates))
	par.Do(jobs, len(candidates), func(ci int) {
		name := candidates[ci]
		m, err := NewByName(name, seed)
		if err != nil {
			errs[ci] = err
			return
		}
		setJobs(m, jobs)
		if err := m.Fit(train.X, train.Y); err != nil {
			errs[ci] = fmt.Errorf("ml: fitting %s: %w", name, err)
			return
		}
		e := AvgRelError(PredictAll(m, test.X), test.Y, relFloor)
		results[ci] = CandidateResult{Name: name, Error: e}
	})
	report := SelectionReport{}
	for ci := range candidates {
		if errs[ci] != nil {
			return nil, report, errs[ci]
		}
		report.Candidates = append(report.Candidates, results[ci])
	}
	sort.SliceStable(report.Candidates, func(i, j int) bool {
		return report.Candidates[i].Error < report.Candidates[j].Error
	})
	report.Best = report.Candidates[0].Name

	final, err := NewByName(report.Best, seed)
	if err != nil {
		return nil, report, err
	}
	setJobs(final, jobs)
	if err := final.Fit(data.X, data.Y); err != nil {
		return nil, report, err
	}
	return final, report, nil
}
