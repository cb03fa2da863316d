package selfdrive

import (
	"testing"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/modeling"
	"mb2/internal/plan"
	"mb2/internal/planner"
	"mb2/internal/session"
	"mb2/internal/workload"
)

// newTestController returns a controller over a fresh TPC-C database's
// process list plus the index candidate the by-last-name lookups surface.
func newTestController(t *testing.T, cfg Config) (*LiveController, *planner.IndexCandidate) {
	t.Helper()
	db := engine.Open(catalog.DefaultKnobs())
	bench := workload.TPCC{CustomersPerDistrict: 300}
	if err := bench.Load(db, 1, 1); err != nil {
		t.Fatal(err)
	}
	scan := bench.CustomerByLastScan(0, 0, 0)
	cands := planner.GenerateIndexCandidates(db, modeling.IntervalForecast{
		IntervalUS: 100_000, Threads: 1,
		Queries: []modeling.ForecastQuery{{Plan: scan, Count: 10, Fingerprint: plan.Fingerprint(scan)}},
	})
	if len(cands) == 0 {
		t.Fatal("by-last-name scan surfaced no index candidate")
	}
	return NewLiveController(session.NewRegistry(db, 0), sharedModels(t), cfg), &cands[0]
}

// TestControlStepSelectionRule drives the shared control step with
// hand-ranked action lists: nothing below the improvement threshold is
// applied, an index build is passed over while one is in flight (and the
// next qualifying action wins), at most one action is applied per step, and
// the index-publish is recorded at the step where the build completes.
func TestControlStepSelectionRule(t *testing.T) {
	build := func(c *planner.IndexCandidate, imp float64) planner.Action {
		return planner.Action{Kind: planner.ActionIndexBuild, Index: c, Threads: 2, PredictedImprovement: imp}
	}
	mode := func(imp float64) planner.Action {
		return planner.Action{Kind: planner.ActionModeChange, Mode: catalog.Compile, PredictedImprovement: imp}
	}
	dop := func(imp float64) planner.Action {
		return planner.Action{Kind: planner.ActionSetDOP, DOP: 2, PredictedImprovement: imp}
	}
	cases := []struct {
		name     string
		inFlight bool // a build is already running when the step plans
		ranked   func(c *planner.IndexCandidate) []planner.Action
		want     string // kind applied at the step ("" = none)
	}{
		{"below threshold", false, func(*planner.IndexCandidate) []planner.Action {
			return []planner.Action{mode(minImprovement / 2)}
		}, ""},
		{"at threshold", false, func(*planner.IndexCandidate) []planner.Action {
			return []planner.Action{mode(minImprovement)}
		}, "mode-change"},
		{"best only", false, func(c *planner.IndexCandidate) []planner.Action {
			return []planner.Action{dop(0.5), mode(0.4), build(c, 0.3)}
		}, "set-dop"},
		{"build when idle", false, func(c *planner.IndexCandidate) []planner.Action {
			return []planner.Action{build(c, 0.9), dop(0.3)}
		}, "index-build-start"},
		{"build skipped in flight", true, func(c *planner.IndexCandidate) []planner.Action {
			return []planner.Action{build(c, 0.9), dop(0.3), mode(0.2)}
		}, "set-dop"},
		{"in flight, rest below threshold", true, func(c *planner.IndexCandidate) []planner.Action {
			return []planner.Action{build(c, 0.9), mode(minImprovement / 2)}
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctl, cand := newTestController(t, DefaultConfig())
			if tc.inFlight {
				if err := ctl.applyBest(0, []planner.Action{build(cand, 0.9)}); err != nil {
					t.Fatal(err)
				}
			}
			before, running := len(ctl.actions), ctl.build
			if err := ctl.applyBest(7, tc.ranked(cand)); err != nil {
				t.Fatal(err)
			}
			applied := ctl.actions[before:]
			if tc.want == "" {
				if len(applied) != 0 {
					t.Fatalf("applied %+v, want nothing", applied)
				}
			} else if len(applied) != 1 || applied[0].Kind != tc.want || applied[0].Interval != 7 {
				t.Fatalf("applied %+v, want exactly one %s at step 7", applied, tc.want)
			}
			if tc.inFlight && ctl.build != running {
				t.Fatal("the in-flight build was replaced")
			}
			knobs := ctl.p.DB.Knobs()
			if got := knobs.ScanDOP == 2; got != (tc.want == "set-dop") {
				t.Errorf("ScanDOP = %d after applying %q", knobs.ScanDOP, tc.want)
			}
			if got := knobs.ExecutionMode == catalog.Compile; got != (tc.want == "mode-change") {
				t.Errorf("ExecutionMode = %v after applying %q", knobs.ExecutionMode, tc.want)
			}
		})
	}

	// Publish: recorded at the step where the build completes, not before.
	ctl, cand := newTestController(t, DefaultConfig())
	if err := ctl.applyBest(0, []planner.Action{build(cand, 0.9)}); err != nil {
		t.Fatal(err)
	}
	if err := ctl.publishIfDone(1); err != nil {
		t.Fatal(err)
	}
	if ctl.build == nil || len(ctl.published) != 0 || len(ctl.actions) != 1 {
		t.Fatalf("unfinished build published early: actions %+v", ctl.actions)
	}
	clear(ctl.build.Remaining)
	if err := ctl.publishIfDone(2); err != nil {
		t.Fatal(err)
	}
	last := ctl.actions[len(ctl.actions)-1]
	if last.Kind != "index-publish" || last.Interval != 2 || last.Detail != cand.Name {
		t.Fatalf("last action %+v, want index-publish of %s at step 2", last, cand.Name)
	}
	if ctl.build != nil || len(ctl.published) != 1 {
		t.Fatalf("after publish: build %v, %d published", ctl.build, len(ctl.published))
	}
	if err := ctl.publishIfDone(3); err != nil || len(ctl.actions) != 2 {
		t.Fatalf("idle publishIfDone: err %v, actions %+v", err, ctl.actions)
	}
}

// TestAppliedActionKinds pins, per planner action family, the
// AppliedAction.Kind and Detail strings the run digest folds and the family
// name the planner prints; a kind outside the four is an error, not an
// entry logged under another family's name.
func TestAppliedActionKinds(t *testing.T) {
	ctl, cand := newTestController(t, DefaultConfig())
	cases := map[planner.ActionKind]struct {
		action               planner.Action
		family, kind, detail string
	}{
		planner.ActionModeChange:  {planner.Action{Mode: catalog.Compile}, "mode-change", "mode-change", catalog.Compile.String()},
		planner.ActionIndexBuild:  {planner.Action{Index: cand, Threads: 2}, "index-build", "index-build-start", cand.Name + " threads=2"},
		planner.ActionRepartition: {planner.Action{Partitions: 4}, "repartition", "repartition", "parts=4"},
		planner.ActionSetDOP:      {planner.Action{DOP: 2}, "set-dop", "set-dop", "dop=2"},
	}
	for k := planner.ActionModeChange; k <= planner.ActionSetDOP; k++ {
		tc, ok := cases[k]
		if !ok {
			t.Fatalf("action kind %v has no row", k)
		}
		if k.String() != tc.family {
			t.Errorf("ActionKind(%d).String() = %q, want %q", int(k), k, tc.family)
		}
		a := tc.action
		a.Kind, a.PredictedImprovement = k, 0.5
		if err := ctl.applyBest(int(k), []planner.Action{a}); err != nil {
			t.Fatal(err)
		}
		got := ctl.actions[len(ctl.actions)-1]
		want := AppliedAction{Interval: int(k), Kind: tc.kind, Detail: tc.detail, PredictedImprovement: 0.5}
		if got != want {
			t.Errorf("%v logged %+v, want %+v", k, got, want)
		}
	}

	unknown := planner.ActionSetDOP + 1
	if got := unknown.String(); got != "action(4)" {
		t.Errorf("unknown kind prints %q, want action(4)", got)
	}
	logged := len(ctl.actions)
	if err := ctl.applyBest(9, []planner.Action{{Kind: unknown, PredictedImprovement: 0.5}}); err == nil {
		t.Error("an action of unknown kind was applied without error")
	}
	if len(ctl.actions) != logged {
		t.Errorf("unknown kind logged %+v", ctl.actions[logged:])
	}
}
