package planner

import (
	"fmt"

	"mb2/internal/modeling"
)

// PredictRecoveryUS prices a node's full recovery — replaying its pending
// committed suffix, rebuilding its secondary indexes, and writing the
// establishing checkpoint — as predicted elapsed microseconds. This is the
// number a failover drill compares against the measured promotion cost, and
// the key the planner ranks promotion targets by.
func (p *Planner) PredictRecoveryUS(e modeling.RecoveryEstimate) (float64, error) {
	var tr modeling.Translator
	total, _, err := p.Models.PredictQuery(tr.TranslateRecovery(e))
	if err != nil {
		return 0, err
	}
	return finiteOr(total.ElapsedUS, 0), nil
}

// PickPromotion prices every candidate node's recovery and returns the index
// of the cheapest one plus all predictions (exact ties break toward the
// lowest index, keeping the choice deterministic).
func (p *Planner) PickPromotion(ests []modeling.RecoveryEstimate) (int, []float64, error) {
	if len(ests) == 0 {
		return -1, nil, fmt.Errorf("planner: no promotion candidates")
	}
	preds := make([]float64, len(ests))
	best := 0
	for i, e := range ests {
		us, err := p.PredictRecoveryUS(e)
		if err != nil {
			return -1, nil, err
		}
		preds[i] = us
		if us < preds[best] {
			best = i
		}
	}
	return best, preds, nil
}
