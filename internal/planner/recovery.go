package planner

import "mb2/internal/modeling"

// PredictRecoveryUS prices a node's full recovery — replaying its pending
// committed suffix, rebuilding its secondary indexes, and writing the
// establishing checkpoint — as predicted elapsed microseconds. This is the
// number a failover drill compares against the measured promotion cost, and
// the price it hands repl.PickPromotion to rank promotion targets by.
func (p *Planner) PredictRecoveryUS(e modeling.RecoveryEstimate) (float64, error) {
	var tr modeling.Translator
	total, _, err := p.Models.PredictQuery(tr.TranslateRecovery(e))
	if err != nil {
		return 0, err
	}
	return finiteOr(total.ElapsedUS, 0), nil
}
