package experiments

import (
	"io"
	"math"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/metrics"
	"mb2/internal/modeling"
	"mb2/internal/plan"
	"mb2/internal/qppnet"
	"mb2/internal/runner"
	"mb2/internal/workload"
)

// measureTemplates executes each template in isolation several times and
// returns the trimmed-mean elapsed time per template (microseconds).
// sleepEvery > 0 applies the simulated JHT software update
// (exec.Ctx.JHTSleepEvery).
func measureTemplates(db *engine.DB, templates []runner.QueryTemplate,
	mode catalog.ExecutionMode, reps, sleepEvery int) []float64 {
	reps = max(reps, 1)
	out := make([]float64, len(templates))
	for i, q := range templates {
		samples := make([]float64, 0, reps)
		for r := 0; r < reps; r++ {
			ctx := runnerCtx(db, mode, sleepEvery)
			before := ctx.Thread().Counters()
			mustRun(ctx, q.Plan)
			samples = append(samples, ctx.Thread().Since(before).ElapsedUS)
		}
		out[i] = metrics.TrimmedMean(samples, 0.2)
	}
	return out
}

// mb2QueryPredictions predicts each template's elapsed time with a model
// set.
func mb2QueryPredictions(ms *modeling.ModelSet, tr *modeling.Translator,
	templates []runner.QueryTemplate) ([]float64, error) {
	out := make([]float64, len(templates))
	for i, q := range templates {
		p, _, err := ms.PredictQuery(tr.TranslatePlan(q.Plan))
		if err != nil {
			return nil, err
		}
		out[i] = p.ElapsedUS
	}
	return out, nil
}

func relErr(pred, actual []float64) float64 {
	total := 0.0
	for i := range pred {
		denom := actual[i]
		if denom < 1 {
			denom = 1
		}
		total += math.Abs(pred[i]-actual[i]) / denom
	}
	return total / float64(len(pred))
}

func absErr(pred, actual []float64) float64 {
	total := 0.0
	for i := range pred {
		total += math.Abs(pred[i] - actual[i])
	}
	return total / float64(len(pred))
}

// modelsNoNorm trains a second model set without output-label
// normalization (the Fig 7 ablation), cached on the pipeline.
var noNormCache = map[*Pipeline]*modeling.ModelSet{}

func (p *Pipeline) modelsNoNorm() (*modeling.ModelSet, error) {
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if ms, ok := noNormCache[p]; ok {
		return ms, nil
	}
	opts := p.Cfg.Train
	opts.Normalize = false
	ms, err := modeling.TrainModelSet(p.Repo, opts)
	if err != nil {
		return nil, err
	}
	noNormCache[p] = ms
	return ms, nil
}

// Fig7aRow is one OLAP generalization measurement.
type Fig7aRow struct {
	Dataset   string
	QPPNet    float64 // avg relative error
	MB2NoNorm float64
	MB2       float64
}

// Fig7a reproduces the OLAP query-runtime generalization experiment:
// QPPNet trained on the 1x TPC-H dataset versus MB2's workload-independent
// OU-models, evaluated at 0.1x, 1x, and 10x scale.
func Fig7a(p *Pipeline) ([]Fig7aRow, error) {
	// Train QPPNet on the 1x dataset.
	db1, templates1, err := p.LoadTPCH(1)
	if err != nil {
		return nil, err
	}
	actual1 := measureTemplates(db1, templates1, catalog.Interpret, 3, 0)
	var plans []plan.Node
	var lats []float64
	for rep := 0; rep < 5; rep++ { // repeated epochs of the same workload
		for i, q := range templates1 {
			plans = append(plans, q.Plan)
			lats = append(lats, actual1[i])
		}
	}
	qpp := qppnet.New(p.Cfg.Seed)
	if err := qpp.Fit(plans, lats); err != nil {
		return nil, err
	}

	noNorm, err := p.modelsNoNorm()
	if err != nil {
		return nil, err
	}

	var rows []Fig7aRow
	for _, scale := range []struct {
		name string
		mult float64
	}{{"TPC-H 0.1G", 0.1}, {"TPC-H 1G", 1}, {"TPC-H 10G", 10}} {
		db, templates, err := p.LoadTPCH(scale.mult)
		if err != nil {
			return nil, err
		}
		actual := measureTemplates(db, templates, catalog.Interpret, 3, 0)

		qp := make([]float64, len(templates))
		for i, q := range templates {
			qp[i] = qpp.Predict(q.Plan)
		}
		tr := modeling.NewTranslator(db, catalog.Interpret)
		mb2Pred, err := mb2QueryPredictions(p.Models, tr, templates)
		if err != nil {
			return nil, err
		}
		nnPred, err := mb2QueryPredictions(noNorm, tr, templates)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig7aRow{
			Dataset:   scale.name,
			QPPNet:    relErr(qp, actual),
			MB2NoNorm: relErr(nnPred, actual),
			MB2:       relErr(mb2Pred, actual),
		})
	}
	return rows, nil
}

// PrintFig7a renders the figure.
func PrintFig7a(w io.Writer, rows []Fig7aRow) {
	fprintf(w, "Fig 7a: OLAP query runtime prediction (avg relative error)\n")
	fprintf(w, "%-12s %10s %14s %10s\n", "dataset", "QPPNet", "MB2-no-norm", "MB2")
	for _, r := range rows {
		fprintf(w, "%-12s %10.2f %14.2f %10.2f\n", r.Dataset, r.QPPNet, r.MB2NoNorm, r.MB2)
	}
}

// Fig7bRow is one OLTP generalization measurement.
type Fig7bRow struct {
	Workload  string
	QPPNet    float64 // avg absolute error per query template (us)
	MB2NoNorm float64
	MB2       float64
}

// Fig7b reproduces the OLTP generalization experiment: QPPNet trained on
// TPC-C query metrics, evaluated on TPC-C, TATP, and SmallBank; MB2 uses
// the same OU-models it always uses.
func Fig7b(p *Pipeline) ([]Fig7bRow, error) {
	seed := p.Cfg.Seed
	// Each benchmark has a different data size, so index structures differ
	// in depth and cache residency — the environment shift QPPNet's
	// workload-specific training cannot see.
	benches := []workload.Benchmark{
		workload.TPCC{CustomersPerDistrict: 100},
		workload.TATP{},
		workload.SmallBank{},
	}
	scales := []float64{1, 1.0, 0.5}
	names := []string{"TPC-C", "TATP", "SmallBank"}

	dbs := make([]*engine.DB, len(benches))
	templates := make([][]runner.QueryTemplate, len(benches))
	actuals := make([][]float64, len(benches))
	for i, b := range benches {
		db := engine.Open(catalog.DefaultKnobs())
		if err := b.Load(db, scales[i], seed); err != nil {
			return nil, err
		}
		dbs[i] = db
		templates[i] = b.Templates(db, seed)
		actuals[i] = measureTemplates(db, templates[i], catalog.Interpret, 5, 0)
	}

	// QPPNet trains on the most complex workload (TPC-C).
	var plans []plan.Node
	var lats []float64
	for rep := 0; rep < 5; rep++ {
		for i, q := range templates[0] {
			plans = append(plans, q.Plan)
			lats = append(lats, actuals[0][i])
		}
	}
	qpp := qppnet.New(seed)
	if err := qpp.Fit(plans, lats); err != nil {
		return nil, err
	}
	noNorm, err := p.modelsNoNorm()
	if err != nil {
		return nil, err
	}

	var rows []Fig7bRow
	for i := range benches {
		qp := make([]float64, len(templates[i]))
		for j, q := range templates[i] {
			qp[j] = qpp.Predict(q.Plan)
		}
		tr := modeling.NewTranslator(dbs[i], catalog.Interpret)
		mb2Pred, err := mb2QueryPredictions(p.Models, tr, templates[i])
		if err != nil {
			return nil, err
		}
		nnPred, err := mb2QueryPredictions(noNorm, tr, templates[i])
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig7bRow{
			Workload:  names[i],
			QPPNet:    absErr(qp, actuals[i]),
			MB2NoNorm: absErr(nnPred, actuals[i]),
			MB2:       absErr(mb2Pred, actuals[i]),
		})
	}
	return rows, nil
}

// PrintFig7b renders the figure.
func PrintFig7b(w io.Writer, rows []Fig7bRow) {
	fprintf(w, "Fig 7b: OLTP query runtime prediction (avg absolute error per template, us)\n")
	fprintf(w, "%-12s %10s %14s %10s\n", "workload", "QPPNet", "MB2-no-norm", "MB2")
	for _, r := range rows {
		fprintf(w, "%-12s %10.2f %14.2f %10.2f\n", r.Workload, r.QPPNet, r.MB2NoNorm, r.MB2)
	}
}

// MeasureOne measures one template's isolated elapsed time under the given
// execution mode (helper for examples and per-query analysis).
func MeasureOne(db *engine.DB, q runner.QueryTemplate, mode catalog.ExecutionMode) float64 {
	return measureTemplates(db, []runner.QueryTemplate{q}, mode, 3, 0)[0]
}
