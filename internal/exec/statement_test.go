package exec

import (
	"runtime/debug"
	"slices"
	"testing"

	"mb2/internal/catalog"
	"mb2/internal/plan"
	"mb2/internal/storage"
)

// projectItems projects id and val of the items with id < k: under
// Materialize every output tuple is carved from the Ctx's arena, two values
// each.
func projectItems(k int) plan.Node {
	return &plan.ProjectNode{
		Child: &plan.SeqScanNode{Table: "items", Filter: plan.Cmp{Op: plan.LT, L: plan.Col(0), R: plan.IntConst(int64(k))}},
		Exprs: []plan.Expr{plan.Col(0), plan.Col(2)},
	}
}

// TestReleasedRegionGivesBackEveryChunk: a statement whose result spans
// three arena chunks gives all three back on release, cleared, and leaves
// the arena holding no chunk; its result's struct is the next statement's.
func TestReleasedRegionGivesBackEveryChunk(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a GC may free the recycled set
	const rows = 5000                                // 10 000 values: 4 096 + 4 096 + 1 808
	ctx, _ := testCtx(newTestDB(t, rows, 10))
	b, err := ctx.Statement(projectItems(rows))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Rows) != rows || b.Rows[rows-1][0].I != rows-1 {
		t.Fatalf("%d rows, want %d", len(b.Rows), rows)
	}
	if len(ctx.arena.drawn) != 3 {
		t.Fatalf("the statement drew %d chunks, want 3", len(ctx.arena.drawn))
	}
	drawn := slices.Clone(ctx.arena.drawn)
	ctx.ReleaseStatement()

	if ctx.arena.chunk != nil || ctx.arena.off != 0 || len(ctx.arena.drawn) != 0 {
		t.Fatalf("released arena still holds a chunk (offset %d, %d drawn)", ctx.arena.off, len(ctx.arena.drawn))
	}
	for i, c := range drawn {
		if j := slices.IndexFunc(c, func(v storage.Value) bool { return v != storage.Value{} }); j >= 0 {
			t.Fatalf("chunk %d keeps value %v at %d after release", i, c[j], j)
		}
	}
	if b.Rows != nil {
		t.Fatal("the released result still holds its rows")
	}
	var got, released []*storage.Value
	for _, c := range drawn {
		got, released = append(got, &getChunk()[0]), append(released, &c[0])
	}
	for _, first := range released {
		if !slices.Contains(got, first) {
			t.Fatalf("a released chunk is not in the recycled set: drew %v, released %v", got, released)
		}
	}
	if next, err := ctx.Statement(projectItems(10)); err != nil || next != b {
		t.Fatalf("the next statement's result is %p (%v), want the released struct %p", next, err, b)
	}
}

// TestRegionCarvedAfterStatementIsNeverRewound: rows a caller carves with
// Execute on a statement's Ctx — before the statement, or between it and the
// next — outlive every release, on every driver that carves.
func TestRegionCarvedAfterStatementIsNeverRewound(t *testing.T) {
	db := newTestDB(t, 300, 10)
	for _, mode := range []catalog.ExecutionMode{catalog.Interpret, catalog.Compile, catalog.Vectorize} {
		t.Run(mode.String(), func(t *testing.T) {
			ctx, _ := testCtx(db)
			ctx.Mode = mode
			bare := func(k int) ([]storage.Tuple, []string) {
				b, err := Execute(ctx, projectItems(k))
				if err != nil {
					t.Fatal(err)
				}
				return b.Rows, tupleStrings(b.Rows)
			}
			statement := func(k int) {
				b, err := ctx.Statement(projectItems(k))
				if err != nil || len(b.Rows) != k {
					t.Fatalf("statement returned %v, %v", b, err)
				}
			}
			before, beforeWant := bare(40) // the chunk a statement marks in
			statement(200)
			after, afterWant := bare(50) // carved after the statement ended
			statement(250)               // releases the first: forgotten, not rewound
			statement(100)
			ctx.ReleaseStatement()
			statement(300)
			ctx.ReleaseStatement()
			if got := tupleStrings(before); !slices.Equal(got, beforeWant) {
				t.Fatalf("rows carved before the statements changed: %v", got)
			}
			if got := tupleStrings(after); !slices.Equal(got, afterWant) {
				t.Fatalf("rows carved after a statement ended changed: %v", got)
			}
		})
	}
}
