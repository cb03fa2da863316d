package plan

import (
	"testing"

	"mb2/internal/catalog"
)

func TestFuseScanRecognizesChains(t *testing.T) {
	pred := Cmp{Op: LT, L: Col(0), R: IntConst(10)}
	exprs := []Expr{Col(1)}

	// Bare scans fuse with no stages.
	p := FuseScan(&SeqScanNode{Table: "t"})
	if p == nil || len(p.Stages) != 0 {
		t.Fatalf("bare seq scan: %+v", p)
	}
	if !p.HasRowIDs() {
		t.Fatal("bare scan keeps row identities")
	}

	// Filter(Project(IdxScan)) fuses with stages in bottom-up order.
	chain := &FilterNode{
		Pred: pred,
		Child: &ProjectNode{
			Exprs: exprs,
			Child: &IdxScanNode{Table: "t", Index: "t_pk"},
		},
	}
	p = FuseScan(chain)
	if p == nil || len(p.Stages) != 2 {
		t.Fatalf("chain: %+v", p)
	}
	if p.Stages[0].Exprs == nil || p.Stages[1].Pred == nil {
		t.Fatalf("stage order not bottom-up: %+v", p.Stages)
	}
	if p.HasRowIDs() {
		t.Fatal("projection must lose row identities")
	}

	// A projecting source also loses identities.
	p = FuseScan(&SeqScanNode{Table: "t", Project: []int{0}})
	if p == nil || p.HasRowIDs() {
		t.Fatal("source projection must lose row identities")
	}

	// Non-chains don't fuse.
	if FuseScan(&SortNode{Child: scanT()}) != nil {
		t.Fatal("sort must not fuse as a scan chain")
	}
	if FuseScan(&FilterNode{Pred: pred, Child: &AggNode{Child: scanT()}}) != nil {
		t.Fatal("filter over agg must not fuse")
	}
}

func scanT() *SeqScanNode { return &SeqScanNode{Table: "t"} }

// fakeConfig answers ChooseDriver's questions from literals: tables absent
// from parts do not exist.
type fakeConfig struct {
	mode     catalog.ExecutionMode
	parts    map[string]int
	keys     map[string][]int
	keyReads int
}

func (c *fakeConfig) DriverMode() catalog.ExecutionMode { return c.mode }
func (c *fakeConfig) PartitionCount(table string) int   { return c.parts[table] }
func (c *fakeConfig) PartitionKeyCols(table string) []int {
	c.keyReads++
	return c.keys[table]
}

func TestChooseDriver(t *testing.T) {
	pred := Cmp{Op: LT, L: Col(0), R: IntConst(10)}
	shapes := map[string]Node{
		"seq": scanT(),
		"idx": &IdxScanNode{Table: "t", Index: "t_pk"},
		"wrapped": &ProjectNode{Exprs: []Expr{Col(1)}, Child: &FilterNode{
			Pred: pred, Child: scanT(), Rows: Estimates{Rows: 7}}},
		"non-chain": &FilterNode{Pred: pred, Child: &AggNode{Child: scanT()}},
	}
	modes := map[string]catalog.ExecutionMode{
		"interpret": catalog.Interpret,
		"compile":   catalog.Compile,
		// A configuration with fusion switched off answers Interpret.
		"compile, fusion off": catalog.Interpret,
		"vectorize":           catalog.Vectorize,
	}
	chains := []struct {
		mode, shape      string
		serial, hashed4x Driver
	}{
		{"interpret", "seq", Materialize, Exchange},
		{"interpret", "idx", Materialize, Materialize},
		{"interpret", "wrapped", Materialize, Exchange},
		{"interpret", "non-chain", Materialize, Materialize},
		{"compile", "seq", RowPass, Exchange},
		{"compile", "idx", RowPass, RowPass},
		{"compile", "wrapped", RowPass, Exchange},
		{"compile", "non-chain", Materialize, Materialize},
		{"compile, fusion off", "seq", Materialize, Exchange},
		{"compile, fusion off", "idx", Materialize, Materialize},
		{"compile, fusion off", "wrapped", Materialize, Exchange},
		{"compile, fusion off", "non-chain", Materialize, Materialize},
		{"vectorize", "seq", VecPass, Exchange},
		{"vectorize", "idx", Materialize, Materialize},
		{"vectorize", "wrapped", VecPass, Exchange},
		{"vectorize", "non-chain", Materialize, Materialize},
	}
	for _, c := range chains {
		for parts, want := range map[int]Driver{1: c.serial, 4: c.hashed4x} {
			cfg := &fakeConfig{mode: modes[c.mode], parts: map[string]int{"t": parts}}
			drv, p := ChooseDriver(cfg, shapes[c.shape])
			if drv != want {
				t.Errorf("%s/%s/parts%d: driver %d, want %d", c.mode, c.shape, parts, drv, want)
			}
			if (p != nil) != (c.shape != "non-chain") {
				t.Errorf("%s/%s/parts%d: pipeline %+v", c.mode, c.shape, parts, p)
			}
			if c.shape == "wrapped" && (len(p.Stages) != 2 || p.Stages[0].Pred == nil ||
				p.Stages[0].OutRows != 7 || p.Stages[1].Exprs == nil) {
				t.Errorf("%s/wrapped/parts%d: stages %+v", c.mode, parts, p.Stages)
			}
			if cfg.keyReads != 0 {
				t.Errorf("%s/%s/parts%d: a scan chain read partition keys", c.mode, c.shape, parts)
			}
		}
	}

	// Hash joins: partition-wise only over two bare scans of tables hashed the
	// same way and joined on their partition keys; otherwise the mode's driver.
	scanU := &SeqScanNode{Table: "u"}
	join := func(l, r Node, lk, rk int) *HashJoinNode {
		return &HashJoinNode{Left: l, Right: r, LeftKeys: []int{lk}, RightKeys: []int{rk}}
	}
	joins := []struct {
		name           string
		node           *HashJoinNode
		tParts, uParts int
		want           Driver
		readKeys       bool
	}{
		{"qualifies", join(scanT(), scanU, 0, 0), 4, 4, Exchange, true},
		{"unpartitioned", join(scanT(), scanU, 0, 0), 1, 1, RowPass, false},
		{"filter on one side", join(scanT(), &SeqScanNode{Table: "u", Filter: pred}, 0, 0), 4, 4, RowPass, false},
		{"projection on one side", join(&SeqScanNode{Table: "t", Project: []int{0}}, scanU, 0, 0), 4, 4, RowPass, false},
		{"probe side not a scan", join(scanT(), &AggNode{Child: scanU}, 0, 0), 4, 4, RowPass, false},
		{"key mismatch", join(scanT(), scanU, 0, 1), 4, 4, RowPass, true},
		{"unequal counts", join(scanT(), scanU, 0, 0), 4, 2, RowPass, false},
		{"unknown table", join(scanT(), &SeqScanNode{Table: "nope"}, 0, 0), 4, 4, RowPass, false},
	}
	for _, c := range joins {
		cfg := &fakeConfig{mode: catalog.Compile,
			parts: map[string]int{"t": c.tParts, "u": c.uParts},
			keys:  map[string][]int{"t": {0}, "u": {0}}}
		drv, p := ChooseDriver(cfg, c.node)
		if drv != c.want || p != nil {
			t.Errorf("join %s: driver %d pipeline %v, want %d and none", c.name, drv, p, c.want)
		}
		if (cfg.keyReads > 0) != c.readKeys {
			t.Errorf("join %s: %d partition-key reads, want any = %v", c.name, cfg.keyReads, c.readKeys)
		}
	}
	for mode, want := range map[catalog.ExecutionMode]Driver{
		catalog.Interpret: Materialize, catalog.Compile: RowPass, catalog.Vectorize: VecPass} {
		cfg := &fakeConfig{mode: mode, parts: map[string]int{"t": 1, "u": 1}}
		if drv, _ := ChooseDriver(cfg, join(scanT(), scanU, 0, 0)); drv != want {
			t.Errorf("serial join in %v: driver %d, want %d", mode, drv, want)
		}
	}
}
