package ml

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// ErrNoData is returned when Fit receives an empty dataset.
var ErrNoData = errors.New("ml: empty training set")

// Model is a multi-output regressor.
type Model interface {
	// Fit trains on rows X with targets Y (same length; Y rows share one
	// width).
	Fit(X, Y [][]float64) error
	// Predict returns the target vector for one input row.
	Predict(x []float64) []float64
	// Name identifies the algorithm family.
	Name() string
	// SizeBytes approximates the trained model's storage footprint.
	SizeBytes() int
}

// Dataset is a design matrix with multi-output targets.
type Dataset struct {
	X [][]float64
	Y [][]float64
}

// Len returns the number of rows.
func (d Dataset) Len() int { return len(d.X) }

// Split divides the dataset into train/test with the given train fraction
// (the paper's 80/20 split) after a deterministic shuffle.
func (d Dataset) Split(trainFrac float64, seed int64) (train, test Dataset) {
	idx := rand.New(rand.NewSource(seed)).Perm(d.Len())
	cut := int(float64(d.Len()) * trainFrac)
	if cut < 1 && d.Len() > 0 {
		cut = 1
	}
	take := func(ids []int) Dataset {
		out := Dataset{X: make([][]float64, len(ids)), Y: make([][]float64, len(ids))}
		for i, id := range ids {
			out.X[i] = d.X[id]
			out.Y[i] = d.Y[id]
		}
		return out
	}
	return take(idx[:cut]), take(idx[cut:])
}

// checkFit validates Fit inputs.
func checkFit(X, Y [][]float64) error {
	if len(X) == 0 || len(Y) != len(X) {
		return ErrNoData
	}
	if len(X[0]) == 0 || len(Y[0]) == 0 {
		return fmt.Errorf("ml: zero-width input or target")
	}
	return nil
}

// Scaler standardizes features to zero mean, unit variance.
type Scaler struct {
	Mean, Std []float64
}

// FitScaler computes column statistics.
func FitScaler(X [][]float64) *Scaler {
	d := len(X[0])
	s := &Scaler{Mean: make([]float64, d), Std: make([]float64, d)}
	for _, row := range X {
		for j, v := range row {
			s.Mean[j] += v
		}
	}
	n := float64(len(X))
	for j := range s.Mean {
		s.Mean[j] /= n
	}
	for _, row := range X {
		for j, v := range row {
			dv := v - s.Mean[j]
			s.Std[j] += dv * dv
		}
	}
	for j := range s.Std {
		s.Std[j] = math.Sqrt(s.Std[j] / n)
		if s.Std[j] < 1e-12 {
			s.Std[j] = 1
		}
	}
	return s
}

// Transform standardizes one row (allocating).
func (s *Scaler) Transform(x []float64) []float64 {
	out := make([]float64, len(x))
	for j, v := range x {
		out[j] = (v - s.Mean[j]) / s.Std[j]
	}
	return out
}

// TransformAll standardizes a matrix.
func (s *Scaler) TransformAll(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, row := range X {
		out[i] = s.Transform(row)
	}
	return out
}

// Inverse undoes standardization for one row.
func (s *Scaler) Inverse(x []float64) []float64 {
	out := make([]float64, len(x))
	for j, v := range x {
		out[j] = v*s.Std[j] + s.Mean[j]
	}
	return out
}

// AvgRelError is the paper's OLAP metric: mean |actual-pred| / max(actual, floor).
// The floor guards the division for near-zero labels.
func AvgRelError(pred, actual [][]float64, floor float64) float64 {
	if floor <= 0 {
		floor = 1e-9
	}
	total, n := 0.0, 0
	for i := range pred {
		for j := range pred[i] {
			a := math.Abs(actual[i][j])
			denom := a
			if denom < floor {
				denom = floor
			}
			total += math.Abs(actual[i][j]-pred[i][j]) / denom
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// PredictAll runs the model over a matrix.
func PredictAll(m Model, X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, x := range X {
		out[i] = m.Predict(x)
	}
	return out
}
