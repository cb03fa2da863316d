package experiments

import (
	"io"
	"math/rand"
	"time"

	"mb2/internal/plan"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/metrics"
	"mb2/internal/modeling"
	"mb2/internal/ou"
	"mb2/internal/runner"
)

// Fig9aResult is the software-update adaptation matrix: prediction error of
// each model variant on each DBMS version, plus the retraining speedup.
type Fig9aResult struct {
	Versions []string // DBMS versions (join-hash-table sleep frequencies)
	Models   []string // model variants (which version they were trained for)
	// Errors[version][model]; models trained for later versions than the
	// DBMS under test are marked NaN-like with -1 ("N/A" in the paper).
	Errors [][]float64
	// RetrainWall is the single-OU retraining time; FullWall approximates
	// retraining everything (the paper reports a 24x ratio).
	RetrainWall time.Duration
	FullWall    time.Duration
}

// fig9aVersions orders the simulated updates from slowest to fastest, as in
// the paper: sleep every 100 tuples, every 1000 tuples, no sleep.
var fig9aVersions = []struct {
	name  string
	every int
}{
	{"1/100 Sleep", 100},
	{"1/1000 Sleep", 1000},
	{"No Sleep", 0},
}

// Fig9a reproduces the model-adaptation experiment: a series of simulated
// improvements to the join-hash-table build. For each DBMS version, only
// the hash-join OU-runner reruns and only that OU-model retrains; stale
// models mispredict, refreshed ones recover (Sec 8.5 / Fig 9a).
func Fig9a(p *Pipeline) (Fig9aResult, error) {
	res := Fig9aResult{}
	for _, v := range fig9aVersions {
		res.Versions = append(res.Versions, v.name)
		res.Models = append(res.Models, v.name+" Model")
	}

	// Train one JHT model per DBMS version by rerunning just the hash-join
	// OU-runner with the version's behavior.
	jhtModels := make([]*modeling.OUModel, len(fig9aVersions))
	opts := p.Cfg.Train
	for i, v := range fig9aVersions {
		rcfg := p.Cfg.Runner
		rcfg.JHTSleepEvery = v.every
		repo := metrics.NewRepository()
		start := time.Now()
		for _, r := range runner.AllRunners() {
			if r.Name == "hash_join" {
				r.Run(repo, rcfg)
			}
		}
		m, err := modeling.TrainOUModel(ou.HashJoinBuild, repo.Records(ou.HashJoinBuild), opts)
		if err != nil {
			return res, err
		}
		if i == 0 {
			res.RetrainWall = time.Since(start)
		}
		jhtModels[i] = m
	}
	res.FullWall = p.RunnerWall + p.TrainWall

	// Evaluate each (DBMS version, model variant) pair on join-heavy
	// TPC-H queries: plans whose hash-join builds are large enough that the
	// simulated update to the build path dominates (in the paper, TPC-H's
	// joins build multi-million-row tables).
	res.Errors = make([][]float64, len(fig9aVersions))
	for vi, v := range fig9aVersions {
		res.Errors[vi] = make([]float64, len(fig9aVersions))
		db, _, err := p.LoadTPCH(1)
		if err != nil {
			return res, err
		}
		templates := joinHeavyTemplates(db)
		actual := measureTemplates(db, templates, catalog.Compile, 3, v.every)
		tr := modeling.NewTranslator(db, catalog.Compile)
		for mi := range fig9aVersions {
			if mi > vi {
				// A model for a later update cannot exist yet (N/A cells).
				res.Errors[vi][mi] = -1
				continue
			}
			// Swap in the variant's JHT model.
			orig := p.Models.OUModels[ou.HashJoinBuild]
			p.Models.OUModels[ou.HashJoinBuild] = jhtModels[mi]
			pred, err := mb2QueryPredictions(p.Models, tr, templates)
			p.Models.OUModels[ou.HashJoinBuild] = orig
			if err != nil {
				return res, err
			}
			res.Errors[vi][mi] = relErr(pred, actual)
		}
	}
	return res, nil
}

// joinHeavyTemplates builds evaluation queries dominated by the join
// hash-table build: lineitem is the build side.
func joinHeavyTemplates(db *engine.DB) []runner.QueryTemplate {
	lrows := db.RowCount("lineitem")
	orows := db.RowCount("orders")
	srows := db.RowCount("supplier")
	var out []runner.QueryTemplate
	for _, frac := range []float64{1, 0.5, 0.25} {
		// The filter cuts on l_orderkey, which is uniform in [0, orders);
		// probing the small supplier table keeps the query build-dominated,
		// so the simulated update to the build path is what the models must
		// track.
		cut := int64(orows * frac)
		var filter plan.Expr
		if frac < 1 {
			filter = plan.Cmp{Op: plan.LT, L: plan.Col(0), R: plan.IntConst(cut)}
		}
		join := &plan.HashJoinNode{
			Left: &plan.SeqScanNode{Table: "lineitem", Filter: filter,
				Rows: plan.Estimates{Rows: lrows * frac}},
			Right:    &plan.SeqScanNode{Table: "supplier", Rows: plan.Estimates{Rows: srows}},
			LeftKeys: []int{2}, RightKeys: []int{0}, // l_suppkey = s_suppkey
			Rows: plan.Estimates{Rows: lrows * frac, Distinct: srows},
		}
		out = append(out, runner.QueryTemplate{
			Name: "JHTJOIN",
			Plan: &plan.AggNode{
				Child:   join,
				GroupBy: nil,
				Aggs:    []plan.AggSpec{{Fn: plan.Count, Arg: plan.Col(0)}},
				Rows:    plan.Estimates{Rows: 1, Distinct: 1},
			},
		})
	}
	return out
}

// PrintFig9a renders the adaptation matrix.
func PrintFig9a(w io.Writer, r Fig9aResult) {
	fprintf(w, "Fig 9a: model adaptation under DBMS updates (avg relative error, TPC-H)\n")
	fprintf(w, "%-14s", "DBMS version")
	for _, m := range r.Models {
		fprintf(w, " %16s", m)
	}
	fprintf(w, "\n")
	for vi, v := range r.Versions {
		fprintf(w, "%-14s", v)
		for mi := range r.Models {
			if r.Errors[vi][mi] < 0 {
				fprintf(w, " %16s", "N/A")
			} else {
				fprintf(w, " %16.2f", r.Errors[vi][mi])
			}
		}
		fprintf(w, "\n")
	}
	fprintf(w, "single-OU retrain: %v; full data+training: %v (%.0fx faster)\n",
		r.RetrainWall, r.FullWall, float64(r.FullWall)/float64(r.RetrainWall+1))
}

// Fig9bRow compares prediction error with accurate versus noisy cardinality
// estimates at one dataset scale.
type Fig9bRow struct {
	Dataset  string
	Accurate float64
	Noisy    float64
}

// Fig9b reproduces the cardinality-robustness experiment: Gaussian noise
// with 30% relative deviation on the tuple-count and cardinality features
// (Sec 8.5 / Fig 9b).
func Fig9b(p *Pipeline) ([]Fig9bRow, error) {
	var rows []Fig9bRow
	for _, scale := range []struct {
		name string
		mult float64
	}{{"TPC-H 0.1G", 0.1}, {"TPC-H 1G", 1}, {"TPC-H 10G", 10}} {
		db, templates, err := p.LoadTPCH(scale.mult)
		if err != nil {
			return nil, err
		}
		actual := measureTemplates(db, templates, catalog.Interpret, 3, 0)

		tr := modeling.NewTranslator(db, catalog.Interpret)
		accPred, err := mb2QueryPredictions(p.Models, tr, templates)
		if err != nil {
			return nil, err
		}

		rng := rand.New(rand.NewSource(p.Cfg.Seed))
		tr.CardNoise = func(v float64) float64 { return v * (1 + 0.3*rng.NormFloat64()) }
		noisyPred, err := mb2QueryPredictions(p.Models, tr, templates)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig9bRow{
			Dataset:  scale.name,
			Accurate: relErr(accPred, actual),
			Noisy:    relErr(noisyPred, actual),
		})
	}
	return rows, nil
}

// PrintFig9b renders the robustness rows.
func PrintFig9b(w io.Writer, rows []Fig9bRow) {
	fprintf(w, "Fig 9b: robustness to noisy cardinality estimates (avg relative error)\n")
	fprintf(w, "%-12s %10s %10s\n", "dataset", "accurate", "noisy")
	for _, r := range rows {
		fprintf(w, "%-12s %10.2f %10.2f\n", r.Dataset, r.Accurate, r.Noisy)
	}
}
