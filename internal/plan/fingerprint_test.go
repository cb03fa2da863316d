package plan

import (
	"testing"

	"mb2/internal/storage"
)

func fpScan(table string, filter Expr, rows float64) Node {
	return &SeqScanNode{Table: table, Filter: filter, Rows: Estimates{Rows: rows, Distinct: rows}}
}

func TestFingerprintDeterministicAndStructural(t *testing.T) {
	mk := func() Node {
		return &AggNode{
			Child: &IdxScanNode{Table: "orders", Index: "orders_pk",
				Eq:   []storage.Value{storage.NewInt(1), storage.NewInt(2)},
				Rows: Estimates{Rows: 10, Distinct: 10}},
			GroupBy: []int{1},
			Aggs:    []AggSpec{{Fn: Count, Arg: Col(1)}},
			Rows:    Estimates{Rows: 5, Distinct: 5},
		}
	}
	a, b := Fingerprint(mk()), Fingerprint(mk())
	if a != b {
		t.Fatalf("identical plans fingerprint differently: %#x vs %#x", a, b)
	}
	if a == 0 {
		t.Fatal("fingerprint is zero")
	}
}

func TestFingerprintDistinguishes(t *testing.T) {
	base := fpScan("t", Cmp{Op: EQ, L: Col(0), R: IntConst(1)}, 100)
	variants := map[string]Node{
		"table":     fpScan("u", Cmp{Op: EQ, L: Col(0), R: IntConst(1)}, 100),
		"operator":  fpScan("t", Cmp{Op: LT, L: Col(0), R: IntConst(1)}, 100),
		"constant":  fpScan("t", Cmp{Op: EQ, L: Col(0), R: IntConst(2)}, 100),
		"column":    fpScan("t", Cmp{Op: EQ, L: Col(1), R: IntConst(1)}, 100),
		"estimates": fpScan("t", Cmp{Op: EQ, L: Col(0), R: IntConst(1)}, 200),
		"no filter": fpScan("t", nil, 100),
		"node kind": &FilterNode{Pred: Cmp{Op: EQ, L: Col(0), R: IntConst(1)},
			Rows: Estimates{Rows: 100, Distinct: 100}, Child: fpScan("t", nil, 100)},
	}
	ref := Fingerprint(base)
	for name, v := range variants {
		if Fingerprint(v) == ref {
			t.Errorf("%s change did not alter the fingerprint", name)
		}
	}
}

// TestFingerprintIndexRewriteChanges is the property the prediction cache
// and the planner's what-if rewriter rely on: rewriting a scan to use an
// index yields a different identity, while re-deriving the same rewritten
// plan yields the same one.
func TestFingerprintIndexRewriteChanges(t *testing.T) {
	seq := fpScan("customer", Cmp{Op: EQ, L: Col(3), R: IntConst(7)}, 30)
	idx := func() Node {
		return &IdxScanNode{Table: "customer", Index: "auto_customer_c_last",
			Eq:   []storage.Value{storage.NewInt(7)},
			Rows: Estimates{Rows: 30, Distinct: 30}}
	}
	if Fingerprint(seq) == Fingerprint(idx()) {
		t.Fatal("seq-scan and index-scan forms collide")
	}
	if Fingerprint(idx()) != Fingerprint(idx()) {
		t.Fatal("rewritten form is not stable")
	}
}

func TestFingerprintNilAndUnknown(t *testing.T) {
	if Fingerprint(nil) == 0 {
		t.Fatal("nil plan must still hash to a defined identity")
	}
	if Fingerprint(nil) == Fingerprint(fpScan("t", nil, 1)) {
		t.Fatal("nil plan collides with a real plan")
	}
}

var fpText string

// TestFingerprintPinned holds the fold's byte packing to values computed
// before the fold moved into internal/fold: the prediction cache and every
// drive-loop digest key on them, so a changed packing must fail here and not
// as a re-pinned digest. It also bounds the hash's allocations: what is left
// is the String() of each expression (3 for this plan), none for the fold.
func TestFingerprintPinned(t *testing.T) {
	scan := &SeqScanNode{Table: "orders", Filter: Cmp{Op: EQ, L: Col(1), R: IntConst(7)},
		Project: []int{0, 2}, Rows: Estimates{Rows: 10, Distinct: 3}, TableRows: 1000}
	top := &OutputNode{Child: &SortNode{Child: scan, Keys: []SortKey{{Col: 1, Desc: true}}, Limit: 5}}
	for _, tc := range []struct {
		name string
		node Node
		want uint64
	}{
		{"scan", scan, 0x1aaa7b8e56a30688},
		{"output(sort(scan))", top, 0x8909fd49ade9f392},
		{"nil", nil, 0xe3cdeca78268c0f3},
	} {
		if got := Fingerprint(tc.node); got != tc.want {
			t.Errorf("Fingerprint(%s) = %#x, want %#x", tc.name, got, tc.want)
		}
	}
	// The bound is the filter's own String() — 3 allocations, 5 under the
	// race detector — measured in this binary so it holds in both.
	text := testing.AllocsPerRun(100, func() { fpText = scan.Filter.String() })
	if allocs := testing.AllocsPerRun(100, func() { Fingerprint(top) }); allocs > text || allocs > 5 {
		t.Errorf("Fingerprint of a three-node plan allocates %v times, its filter's String() %v: the fold must add none", allocs, text)
	}
}
