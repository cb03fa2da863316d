package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"mb2/internal/hw"
	"mb2/internal/ou"
)

func TestCollectorEmitDrain(t *testing.T) {
	c := NewCollector()
	c.Emit(ou.SeqScan, []float64{10, 2}, hw.Metrics{ElapsedUS: 5})
	c.Emit(ou.SortBuild, []float64{20}, hw.Metrics{ElapsedUS: 7})
	recs := c.Drain()
	if len(recs) != 2 || recs[0].Kind != ou.SeqScan || recs[1].Labels.ElapsedUS != 7 {
		t.Fatalf("drain wrong: %+v", recs)
	}
	if len(c.Drain()) != 0 {
		t.Fatal("drain must empty the collector")
	}
}

func TestEnableOnlyFilters(t *testing.T) {
	c := NewCollector()
	c.EnableOnly(ou.SeqScan)
	c.Emit(ou.SortBuild, nil, hw.Metrics{})
	c.Emit(ou.SeqScan, nil, hw.Metrics{})
	if recs := c.Drain(); len(recs) != 1 || recs[0].Kind != ou.SeqScan {
		t.Fatalf("EnableOnly(SEQ_SCAN) kept %+v", recs)
	}
}

func TestNoiseIsDeterministicAndNonNegative(t *testing.T) {
	run := func() []Record {
		c := NewCollector()
		c.SetNoise(0.3, 42)
		for i := 0; i < 50; i++ {
			c.Emit(ou.SeqScan, nil, hw.Metrics{ElapsedUS: 10, Cycles: 100})
		}
		return c.Drain()
	}
	a, b := run(), run()
	for i := range a {
		if a[i].Labels != b[i].Labels {
			t.Fatal("noise must be deterministic under a fixed seed")
		}
		if a[i].Labels.ElapsedUS < 0 {
			t.Fatal("noisy labels must stay non-negative")
		}
	}
	// Noise must actually perturb.
	same := true
	for _, r := range a {
		if r.Labels.ElapsedUS != 10 {
			same = false
		}
	}
	if same {
		t.Fatal("noise had no effect")
	}
}

func TestTrackerBracketsWork(t *testing.T) {
	c := NewCollector()
	th := hw.NewThread(hw.DefaultCPU())
	tr := NewTracker(c, th)
	start := tr.Start()
	th.Compute(1e6)
	labels := tr.Stop(ou.Arithmetic, ou.ArithmeticFeatures(1e6, false), start)
	if labels.Instructions < 1e6 {
		t.Fatalf("tracker lost work: %v", labels.Instructions)
	}
	recs := c.Drain()
	if len(recs) != 1 || recs[0].Kind != ou.Arithmetic {
		t.Fatalf("tracker record wrong: %+v", recs)
	}
	// Tracker overhead exists but is small relative to the tracked work.
	if labels.Instructions > 1.01e6 {
		t.Fatalf("tracker overhead too large: %v", labels.Instructions)
	}
}

func TestRepositoryAggregate(t *testing.T) {
	repo := NewRepository()
	c1, c2 := NewCollector(), NewCollector()
	c1.Emit(ou.SeqScan, []float64{1}, hw.Metrics{})
	c1.Emit(ou.GC, []float64{2}, hw.Metrics{})
	c2.Emit(ou.SeqScan, []float64{3}, hw.Metrics{})
	repo.Add(c1.Drain()...)
	repo.Add(c2.Drain()...)
	if repo.NumRecords() != 3 {
		t.Fatalf("repo holds %d records, want 3", repo.NumRecords())
	}
	if got := repo.Records(ou.SeqScan); len(got) != 2 {
		t.Fatalf("SeqScan records = %d", len(got))
	}
	kinds := repo.Kinds()
	if len(kinds) != 2 || kinds[0] != ou.SeqScan || kinds[1] != ou.GC {
		t.Fatalf("kinds = %v", kinds)
	}
	if repo.SizeBytes() <= 0 {
		t.Fatal("SizeBytes must be positive")
	}
}

func TestTrimmedMeanRobustToOutliers(t *testing.T) {
	xs := []float64{10, 10, 10, 10, 10, 10, 10, 10, 1e9, 1e9}
	got := TrimmedMean(xs, 0.2)
	if got != 10 {
		t.Fatalf("trimmed mean = %v, want 10", got)
	}
	if TrimmedMean(nil, 0.2) != 0 {
		t.Fatal("empty input must be 0")
	}
	if TrimmedMean([]float64{5}, 0.2) != 5 {
		t.Fatal("single element wrong")
	}
}

func TestTrimmedMeanBounds(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			// Keep values in a range where summation cannot overflow;
			// metric labels are physical quantities, not float extremes.
			v = math.Mod(v, 1e12)
			xs = append(xs, v)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := TrimmedMean(xs, 0.2)
		return m >= lo-1e-9 && m <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTrimmedMeanLabels(t *testing.T) {
	ms := []hw.Metrics{
		{ElapsedUS: 10}, {ElapsedUS: 10}, {ElapsedUS: 10},
		{ElapsedUS: 10}, {ElapsedUS: 1e6},
	}
	got := TrimmedMeanLabels(ms, 0.2)
	if got.ElapsedUS != 10 {
		t.Fatalf("label trimmed mean = %v", got.ElapsedUS)
	}
	if TrimmedMeanLabels(nil, 0.2) != (hw.Metrics{}) {
		t.Fatal("empty labels must be zero")
	}
}

func TestRepositoryJSONRoundTrip(t *testing.T) {
	repo := NewRepository()
	repo.Add(
		Record{Kind: ou.SeqScan, Features: []float64{100, 4, 32, 0, 0, 1, 0},
			Labels: hw.Metrics{ElapsedUS: 12.5, Cycles: 27500, MemoryBytes: 64}},
		Record{Kind: ou.GC, Features: []float64{3, 7, 1000},
			Labels: hw.Metrics{ElapsedUS: 2, MemoryBytes: -128}},
	)
	var buf strings.Builder
	if err := repo.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back := NewRepository()
	n, err := back.ReadJSON(strings.NewReader(buf.String()))
	if err != nil || n != 2 {
		t.Fatalf("read %d records, err %v", n, err)
	}
	for _, kind := range repo.Kinds() {
		want := repo.Records(kind)
		got := back.Records(kind)
		if len(got) != len(want) {
			t.Fatalf("%v: %d records, want %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Labels != want[i].Labels {
				t.Fatalf("%v record %d labels %v != %v", kind, i, got[i].Labels, want[i].Labels)
			}
			for j := range want[i].Features {
				if got[i].Features[j] != want[i].Features[j] {
					t.Fatalf("feature mismatch")
				}
			}
		}
	}
}

func TestRepositoryJSONErrors(t *testing.T) {
	back := NewRepository()
	if _, err := back.ReadJSON(strings.NewReader(`{"ou":"NOPE","features":[],"labels":[0,0,0,0,0,0,0,0,0]}`)); err == nil {
		t.Fatal("unknown OU must error")
	}
	if _, err := back.ReadJSON(strings.NewReader(`{"ou":"SEQ_SCAN","features":[],"labels":[1]}`)); err == nil {
		t.Fatal("short label vector must error")
	}
	if _, err := back.ReadJSON(strings.NewReader(`not json`)); err == nil {
		t.Fatal("garbage must error")
	}
}

// TestTrackerFeaturesStayWithTheCaller: a feature vector belongs to the code
// that built it. With no collector attached, a tracked invocation allocates
// nothing, the vector included; with one, the record holds a copy, so the
// caller may reuse its slice.
func TestTrackerFeaturesStayWithTheCaller(t *testing.T) {
	th := hw.NewThread(hw.DefaultMachine().CPU)
	if !raceEnabled {
		bare := NewTracker(nil, th)
		allocs := testing.AllocsPerRun(100, func() {
			start := bare.Start()
			bare.Stop(ou.IdxScan, ou.ExecFeatures(1, 2, 16, 1000, 0, 1, true), start)
		})
		if allocs != 0 {
			t.Errorf("a collector-less Stop allocates %v times", allocs)
		}
	}
	c := NewCollector()
	tr := NewTracker(c, th)
	feats := ou.ExecFeatures(1, 2, 16, 1000, 0, 1, true)
	tr.Stop(ou.IdxScan, feats, tr.Start())
	feats[0] = -1
	recs := c.Drain()
	if len(recs) != 1 || recs[0].Features[0] != 1 || &recs[0].Features[0] == &feats[0] {
		t.Fatalf("the record's features alias the caller's slice: %+v", recs)
	}
}
