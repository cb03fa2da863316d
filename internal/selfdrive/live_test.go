package selfdrive

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/plan"
	"mb2/internal/server"
	"mb2/internal/session"
	"mb2/internal/workload"
)

// TestLiveControllerDrivesFromServerTraffic is the acceptance run for the
// live loop: real clients speak SQL to the wire server over the in-proc
// transport, the controller observes their traffic purely through the
// process list, and the what-if planner must select and apply an action
// from that live stream — no pre-built workload, no private channel.
func TestLiveControllerDrivesFromServerTraffic(t *testing.T) {
	ms := sharedModels(t)

	db := engine.Open(catalog.DefaultKnobs())
	bench := workload.TPCC{CustomersPerDistrict: 300}
	if err := bench.Load(db, 1, 1); err != nil {
		t.Fatal(err)
	}

	tr := server.NewPipe()
	srv := server.New(db, server.Config{Contenders: 4})
	ln, err := tr.Listen()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	ctrl := NewLiveController(srv.Registry(), ms, LiveConfig{
		IntervalUS:    100_000,
		HistoryWindow: 6,
		PlanEvery:     1,
	})

	// Four clients send the TPC-C read mix. A statement is observed under
	// its template — the text with its literals factored out — so the two
	// last-name lookups forecast as one series however their constants
	// differ. The last-name scans are the planner's opportunity (index
	// candidate / execution mode).
	byLast := "SELECT * FROM customer WHERE c_w_id = 0 AND c_d_id = 3 AND c_last = 42"
	byLast2 := "SELECT * FROM customer WHERE c_w_id = 0 AND c_d_id = 7 AND c_last = 11"
	point := "SELECT * FROM customer WHERE c_w_id = 0 AND c_d_id = 1 AND c_id = 17"
	const nClients, ticks, perTick = 4, 6, 8
	clients := make([]*server.Client, nClients)
	for i := range clients {
		if clients[i], err = server.Dial(tr); err != nil {
			t.Fatal(err)
		}
		defer clients[i].Close()
	}

	for tick := 0; tick < ticks; tick++ {
		var wg sync.WaitGroup
		errs := make([]error, nClients)
		for ci := range clients {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				for q := 0; q < perTick; q++ {
					stmt := byLast
					switch q % 4 {
					case 1:
						stmt = byLast2
					case 3:
						stmt = point
					}
					if _, err := clients[ci].Query(stmt); err != nil {
						errs[ci] = err
						return
					}
				}
			}(ci)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if _, err := ctrl.Tick(); err != nil {
			t.Fatal(err)
		}
	}

	actions := ctrl.Actions()
	if len(actions) == 0 {
		t.Fatalf("planner applied no action from %d ticks of live server traffic", ticks)
	}
	for _, a := range actions {
		if a.Kind != "index-publish" && a.PredictedImprovement < 0.02 {
			t.Fatalf("applied action promised no improvement: %+v", a)
		}
	}
	// The controller's own index publish changes how the by-last lookups
	// plan; the forecast must predict over the plans that run now, not the
	// sequential scans it saw first.
	if !slices.ContainsFunc(actions, func(a AppliedAction) bool { return a.Kind == "index-publish" }) {
		t.Fatalf("no index published over %d ticks; actions: %v", ticks, actions)
	}
	f := ctrl.forecast()
	if len(f.Queries) == 0 {
		t.Fatal("empty forecast after live traffic")
	}
	for _, q := range f.Queries {
		if hasSeqScan(q.Plan) {
			t.Errorf("forecast predicts with a sequential scan after the index publish: %#x", q.Fingerprint)
		}
	}
	// The forecast history really came through the process list: the
	// drained per-template streams must cover the SQL the clients sent.
	if ctrl.History().Len() != ticks {
		t.Fatalf("history holds %d intervals, want %d", ctrl.History().Len(), ticks)
	}
	if got := ctrl.History().Templates(); len(got) != 2 {
		t.Fatalf("history tracks %d series for two statement templates: %q", len(got), got)
	}
}

// TestLiveControllerTicksWhileSessionsBind runs the controller against
// sessions that never send the same text twice: every execution binds a
// cached plan to new literals and hands it to the observation buffer, which
// the controller drains, forecasts over and rewrites under what-if indexes
// from its own goroutine — and whose index publish makes the sessions
// replan mid-run. Under -race this is the test that a bound plan is an
// immutable value; its assertions are that N distinct literals stay one
// forecast series per template and one representative plan.
func TestLiveControllerTicksWhileSessionsBind(t *testing.T) {
	ms := sharedModels(t)
	db := engine.Open(catalog.DefaultKnobs())
	if err := (workload.TPCC{CustomersPerDistrict: 300}).Load(db, 1, 1); err != nil {
		t.Fatal(err)
	}
	reg := session.NewRegistry(db, 0)
	ctrl := NewLiveController(reg, ms, LiveConfig{IntervalUS: 100_000, HistoryWindow: 6, PlanEvery: 1})

	const nSessions, ticks, perTick = 3, 8, 30
	// Sessions run up to one tick's worth of statements ahead of the
	// controller, so they execute while it ticks.
	progress := make(chan struct{}, perTick)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, nSessions)
	for si := 0; si < nSessions; si++ {
		s, err := reg.Open(session.Options{Contenders: nSessions})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			for q := 0; ; q++ {
				stmt := fmt.Sprintf("SELECT * FROM customer WHERE c_w_id = 0 AND c_d_id = %d AND c_last = %d", q%10, si+nSessions*q)
				if q%4 == 3 {
					stmt = fmt.Sprintf("SELECT * FROM customer WHERE c_w_id = 0 AND c_d_id = %d AND c_id = %d", q%10, si+nSessions*q)
				}
				if _, _, err := s.ExecSQL(stmt); err != nil {
					errs[si] = err
					return
				}
				select {
				case progress <- struct{}{}:
				case <-stop:
					return
				}
			}
		}(si)
	}
	for tick := 0; tick < ticks; tick++ {
		for i := 0; i < perTick; i++ {
			<-progress
		}
		if _, err := ctrl.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d actions over %d ticks: %v", len(ctrl.Actions()), ticks, ctrl.Actions())
	if got := ctrl.History().Templates(); len(got) != 2 {
		t.Fatalf("history tracks %d series after %d ticks of distinct texts of two templates: %q", len(got), ticks, got)
	}
	if len(ctrl.reps) != 2 {
		t.Fatalf("controller keeps %d representative plans, want 2", len(ctrl.reps))
	}
}

// hasSeqScan reports whether a plan tree contains a sequential scan.
func hasSeqScan(n plan.Node) bool {
	if _, ok := n.(*plan.SeqScanNode); ok {
		return true
	}
	return slices.ContainsFunc(n.Children(), hasSeqScan)
}
