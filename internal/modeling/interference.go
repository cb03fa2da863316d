package modeling

import (
	"fmt"
	"math"

	"mb2/internal/hw"
	"mb2/internal/ml"
)

// InterferenceSample is one training example for the interference model:
// the OU-model predictions for a target OU, the summary of everything
// forecasted to run concurrently in the interval, and the observed
// actual/predicted label ratios (Sec 5).
type InterferenceSample struct {
	TargetPred   hw.Metrics   // OU-model prediction for the target OU
	ThreadTotals []hw.Metrics // per-thread predicted label totals in the interval
	IntervalUS   float64
	ActualRatios []float64 // element-wise actual / predicted, >= 1
}

// NumInterferenceFeatures is the fixed input width: the target OU's
// normalized labels, the sum and standard deviation of per-thread totals
// (both per microsecond of interval), the thread count, and the target's
// share of the interval.
const NumInterferenceFeatures = hw.NumLabels*3 + 2

// InterferenceFeatures builds the fixed-size input vector. All inputs are
// normalized: the target's labels by its own predicted elapsed time and the
// summary statistics by the interval length, which is what lets one model
// generalize across OUs with very different absolute run times (Sec 5.1).
func InterferenceFeatures(target hw.Metrics, threadTotals []hw.Metrics, intervalUS float64) []float64 {
	if intervalUS <= 0 {
		intervalUS = 1
	}
	elapsed := target.ElapsedUS
	if elapsed <= 1e-9 {
		elapsed = 1e-9
	}
	out := make([]float64, 0, NumInterferenceFeatures)
	for _, v := range target.Vec() {
		out = append(out, v/elapsed)
	}

	n := float64(len(threadTotals))
	sum := make([]float64, hw.NumLabels)
	for _, t := range threadTotals {
		for i, v := range t.Vec() {
			sum[i] += v
		}
	}
	for _, s := range sum {
		out = append(out, s/intervalUS)
	}
	std := make([]float64, hw.NumLabels)
	if n > 0 {
		for _, t := range threadTotals {
			for i, v := range t.Vec() {
				d := v - sum[i]/n
				std[i] += d * d
			}
		}
		for i := range std {
			std[i] = math.Sqrt(std[i] / n)
		}
	}
	for _, s := range std {
		out = append(out, s/intervalUS)
	}
	out = append(out, n, elapsed/intervalUS)
	return out
}

// InterferenceModel adjusts OU-model predictions for concurrent execution.
// One model serves every OU (Sec 5).
type InterferenceModel struct {
	Model  ml.Model
	Report ml.SelectionReport
}

// TrainInterference fits the interference model from concurrent-runner
// samples. The paper found the neural network works best here given the
// summary-statistic inputs (Sec 8.4); candidates default accordingly.
// Candidate families fit on jobs workers (<= 0 selects GOMAXPROCS, 1 is
// serial) with an identical selection at every setting.
func TrainInterference(samples []InterferenceSample, candidates []string, seed int64, jobs int) (*InterferenceModel, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("modeling: no interference training data")
	}
	if candidates == nil {
		candidates = []string{"neural_net", "random_forest", "gbm"}
	}
	data := ml.Dataset{}
	for _, s := range samples {
		data.X = append(data.X, InterferenceFeatures(s.TargetPred, s.ThreadTotals, s.IntervalUS))
		data.Y = append(data.Y, s.ActualRatios)
	}
	model, report, err := ml.SelectAndTrain(data, candidates, seed, 0.05, jobs)
	if err != nil {
		return nil, err
	}
	return &InterferenceModel{Model: model, Report: report}, nil
}

// PredictRatios returns the per-label inflation ratios (clamped >= 1) for a
// target OU running alongside the given per-thread workload.
func (m *InterferenceModel) PredictRatios(target hw.Metrics, threadTotals []hw.Metrics, intervalUS float64) []float64 {
	r := m.Model.Predict(InterferenceFeatures(target, threadTotals, intervalUS))
	for i := range r {
		if r[i] < 1 || math.IsNaN(r[i]) {
			r[i] = 1
		}
	}
	return r
}
