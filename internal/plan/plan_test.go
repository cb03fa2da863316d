package plan

import (
	"reflect"
	"testing"
	"testing/quick"

	"mb2/internal/storage"
)

func tup(vals ...int64) storage.Tuple {
	t := make(storage.Tuple, len(vals))
	for i, v := range vals {
		t[i] = storage.NewInt(v)
	}
	return t
}

func TestArithInt(t *testing.T) {
	row := tup(6, 3)
	cases := []struct {
		op   ArithOp
		want int64
	}{{Add, 9}, {Sub, 3}, {Mul, 18}, {Div, 2}}
	for _, c := range cases {
		e := Arith{Op: c.op, L: Col(0), R: Col(1)}
		if got := e.Eval(row); got.I != c.want {
			t.Errorf("%v = %d, want %d", e, got.I, c.want)
		}
	}
	// Division by zero yields zero rather than crashing the worker.
	if got := (Arith{Op: Div, L: Col(0), R: IntConst(0)}).Eval(row); got.I != 0 {
		t.Errorf("div by zero = %v", got)
	}
}

func TestArithFloatPromotion(t *testing.T) {
	row := storage.Tuple{storage.NewInt(3), storage.NewFloat(1.5)}
	got := Arith{Op: Mul, L: Col(0), R: Col(1)}.Eval(row)
	if got.F != 4.5 {
		t.Fatalf("promotion failed: %v", got)
	}
}

func TestCmpOperators(t *testing.T) {
	row := tup(5)
	cases := []struct {
		op   CmpOp
		rhs  int64
		want bool
	}{
		{EQ, 5, true}, {EQ, 6, false},
		{NE, 6, true}, {NE, 5, false},
		{LT, 6, true}, {LT, 5, false},
		{LE, 5, true}, {LE, 4, false},
		{GT, 4, true}, {GT, 5, false},
		{GE, 5, true}, {GE, 6, false},
	}
	for _, c := range cases {
		e := Cmp{Op: c.op, L: Col(0), R: IntConst(c.rhs)}
		if got := Truthy(e.Eval(row)); got != c.want {
			t.Errorf("%v = %v, want %v", e, got, c.want)
		}
	}
}

func TestCmpMixedKinds(t *testing.T) {
	row := storage.Tuple{storage.NewInt(2), storage.NewFloat(2.5)}
	if !Truthy(Cmp{Op: LT, L: Col(0), R: Col(1)}.Eval(row)) {
		t.Fatal("2 < 2.5 must hold across kinds")
	}
}

func TestBooleanConnectives(t *testing.T) {
	row := tup(5)
	tr := Cmp{Op: EQ, L: Col(0), R: IntConst(5)}
	fa := Cmp{Op: EQ, L: Col(0), R: IntConst(6)}
	if !Truthy(And{tr, tr}.Eval(row)) || Truthy(And{tr, fa}.Eval(row)) {
		t.Fatal("And wrong")
	}
	if !Truthy(Or{fa, tr}.Eval(row)) || Truthy(Or{fa, fa}.Eval(row)) {
		t.Fatal("Or wrong")
	}
}

func TestOpsPositiveAndCompositional(t *testing.T) {
	e := And{
		Cmp{Op: LT, L: Col(0), R: IntConst(10)},
		Cmp{Op: GT, L: Arith{Op: Add, L: Col(1), R: IntConst(1)}, R: IntConst(0)},
	}
	simple := Cmp{Op: LT, L: Col(0), R: IntConst(10)}
	if e.Ops() <= simple.Ops() {
		t.Fatal("composite expression must cost more than its parts")
	}
}

func TestCmpMatchesCompareProperty(t *testing.T) {
	f := func(a, b int64) bool {
		row := tup(a, b)
		lt := Truthy(Cmp{Op: LT, L: Col(0), R: Col(1)}.Eval(row))
		return lt == (a < b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWalkOrder(t *testing.T) {
	scan := &SeqScanNode{Table: "t"}
	sortN := &SortNode{Child: scan}
	out := &OutputNode{Child: sortN}
	var names []string
	Walk(out, func(n Node) { names = append(names, n.Name()) })
	if len(names) != 3 || names[0] != "SeqScan(t)" || names[2] != "Output" {
		t.Fatalf("walk order = %v", names)
	}
	Walk(nil, func(Node) { t.Fatal("nil walk must not visit") })
}

func TestNodeEstimates(t *testing.T) {
	j := &HashJoinNode{
		Left:  &SeqScanNode{Table: "a", Rows: Estimates{Rows: 10}},
		Right: &SeqScanNode{Table: "b", Rows: Estimates{Rows: 20}},
		Rows:  Estimates{Rows: 15, Distinct: 5},
	}
	if j.Est().Rows != 15 || j.Est().Distinct != 5 {
		t.Fatal("estimates lost")
	}
	if len(j.Children()) != 2 {
		t.Fatal("children wrong")
	}
	ins := &InsertNode{Table: "t", Tuples: []storage.Tuple{tup(1), tup(2)}}
	if ins.Est().Rows != 2 {
		t.Fatal("insert estimate must equal tuple count")
	}
}

func TestExprStrings(t *testing.T) {
	e := And{
		Cmp{Op: LE, L: Col(0), R: IntConst(7)},
		Or{Cmp{Op: EQ, L: Col(1), R: StrConst("x")}, Cmp{Op: GT, L: Col(2), R: FloatConst(1.5)}},
	}
	s := e.String()
	if s == "" || s[0] != '(' {
		t.Fatalf("String = %q", s)
	}
}

func TestAllNodesWalkAndName(t *testing.T) {
	nodes := []Node{
		&SeqScanNode{Table: "t"},
		&IdxScanNode{Table: "t", Index: "i"},
		&HashJoinNode{Left: &SeqScanNode{Table: "a"}, Right: &SeqScanNode{Table: "b"}},
		&IndexJoinNode{Outer: &SeqScanNode{Table: "a"}, Table: "t", Index: "i"},
		&AggNode{Child: &SeqScanNode{Table: "t"}},
		&SortNode{Child: &SeqScanNode{Table: "t"}},
		&ProjectNode{Child: &SeqScanNode{Table: "t"}},
		&FilterNode{Child: &SeqScanNode{Table: "t"}, Pred: IntConst(1)},
		&InsertNode{Table: "t"},
		&UpdateNode{Child: &SeqScanNode{Table: "t"}, Table: "t"},
		&DeleteNode{Child: &SeqScanNode{Table: "t"}, Table: "t"},
		&OutputNode{Child: &SeqScanNode{Table: "t"}},
	}
	seen := map[string]bool{}
	for _, n := range nodes {
		name := n.Name()
		if name == "" {
			t.Fatalf("%T has empty name", n)
		}
		if seen[name] {
			t.Fatalf("duplicate node name %q", name)
		}
		seen[name] = true
		// Walk must visit children before the node itself.
		var order []Node
		Walk(n, func(v Node) { order = append(order, v) })
		if order[len(order)-1] != n {
			t.Fatalf("%s: Walk must visit the root last", name)
		}
		if len(order) != countDescendants(n)+1 {
			t.Fatalf("%s: walk visited %d nodes, want %d", name, len(order), countDescendants(n)+1)
		}
	}
}

func countDescendants(n Node) int {
	total := 0
	for _, c := range n.Children() {
		total += 1 + countDescendants(c)
	}
	return total
}

func TestFloatAndStringCompare(t *testing.T) {
	row := storage.Tuple{storage.NewFloat(1.5), storage.NewString("abc")}
	if !Truthy(Cmp{Op: EQ, L: Col(0), R: FloatConst(1.5)}.Eval(row)) {
		t.Fatal("float equality broken")
	}
	if !Truthy(Cmp{Op: LT, L: Col(1), R: StrConst("b")}.Eval(row)) {
		t.Fatal("string comparison broken")
	}
	if Truthy(Cmp{Op: GE, L: Col(1), R: StrConst("b")}.Eval(row)) {
		t.Fatal("string GE broken")
	}
}

func TestFloatDivisionByZero(t *testing.T) {
	row := storage.Tuple{storage.NewFloat(4)}
	got := Arith{Op: Div, L: Col(0), R: FloatConst(0)}.Eval(row)
	if got.F != 0 {
		t.Fatalf("float div by zero = %v", got)
	}
}

func TestTruthyKinds(t *testing.T) {
	if Truthy(storage.NewFloat(0)) || !Truthy(storage.NewFloat(0.1)) {
		t.Fatal("float truthiness broken")
	}
	if Truthy(storage.NewInt(0)) || !Truthy(storage.NewInt(-1)) {
		t.Fatal("int truthiness broken")
	}
}

// TestMapChildren: every node type comes back as a copy with f applied to
// each child in Children order, and the original is not written.
func TestMapChildren(t *testing.T) {
	leaf := func() Node { return &SeqScanNode{Table: "t"} }
	nodes := []Node{
		&SeqScanNode{Table: "t"}, &IdxScanNode{Table: "t", Index: "i"}, &InsertNode{Table: "t"},
		&HashJoinNode{Left: leaf(), Right: leaf()}, &IndexJoinNode{Outer: leaf()},
		&AggNode{Child: leaf()}, &SortNode{Child: leaf()}, &ProjectNode{Child: leaf()},
		&FilterNode{Child: leaf()}, &UpdateNode{Child: leaf()}, &DeleteNode{Child: leaf()},
		&OutputNode{Child: leaf()},
	}
	for _, n := range nodes {
		before := n.Children()
		var seen []Node
		marker := &SeqScanNode{Table: "mapped"}
		cp := MapChildren(n, func(c Node) Node { seen = append(seen, c); return marker })
		if cp == n || reflect.TypeOf(cp) != reflect.TypeOf(n) {
			t.Fatalf("%s: MapChildren returned %T (same node: %v)", n.Name(), cp, cp == n)
		}
		if !reflect.DeepEqual(seen, before) || !reflect.DeepEqual(n.Children(), before) {
			t.Fatalf("%s: visited %v of %v, original now has %v", n.Name(), seen, before, n.Children())
		}
		for _, c := range cp.Children() {
			if c != marker {
				t.Fatalf("%s: a child of the copy was not mapped", n.Name())
			}
		}
	}
}
