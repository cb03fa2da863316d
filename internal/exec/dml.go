package exec

import (
	"fmt"

	"mb2/internal/ou"
	"mb2/internal/plan"
	"mb2/internal/storage"
)

// DML writes every row through the engine's one write path (engine/write.go:
// version, index entries, write record, redo record); exec adds the OU
// brackets, their features and the operator's compute charges.

func execInsert(ctx *Ctx, n *plan.InsertNode) (*Batch, error) {
	if ctx.Txn == nil {
		return nil, fmt.Errorf("exec: INSERT requires an open transaction")
	}
	tbl := ctx.DB.Table(n.Table)
	if tbl == nil {
		return nil, fmt.Errorf("exec: table %q does not exist", n.Table)
	}
	return writeRows(ctx, ou.Insert, tbl, n.Tuples, 20, func(_ int, data storage.Tuple) error {
		_, err := ctx.DB.Insert(ctx.Txn, ctx.Thread(), tbl, data, ctx.Contenders)
		return err
	})
}

func execUpdate(ctx *Ctx, n *plan.UpdateNode) (*Batch, error) {
	tbl, child, err := dmlTarget(ctx, "UPDATE", n.Table, n.Child)
	if err != nil {
		return nil, err
	}
	return writeRows(ctx, ou.Update, tbl, child.Rows, 20, func(i int, old storage.Tuple) error {
		updated := old.Clone()
		for j, col := range n.SetCols {
			updated[col] = n.SetExprs[j].Eval(old)
			ctx.compute(n.SetExprs[j].Ops() * 2)
		}
		return ctx.DB.Update(ctx.Txn, ctx.Thread(), tbl, child.RowIDs[i], old, updated, ctx.Contenders)
	})
}

func execDelete(ctx *Ctx, n *plan.DeleteNode) (*Batch, error) {
	tbl, child, err := dmlTarget(ctx, "DELETE", n.Table, n.Child)
	if err != nil {
		return nil, err
	}
	return writeRows(ctx, ou.Delete, tbl, child.Rows, 15, func(i int, old storage.Tuple) error {
		return ctx.DB.Delete(ctx.Txn, ctx.Thread(), tbl, child.RowIDs[i], old, ctx.Contenders)
	})
}

// dmlTarget executes an UPDATE's or DELETE's child — the rows to write,
// with their identities — and resolves the target table.
func dmlTarget(ctx *Ctx, stmt, table string, childPlan plan.Node) (*storage.Table, *Batch, error) {
	if ctx.Txn == nil {
		return nil, nil, fmt.Errorf("exec: %s requires an open transaction", stmt)
	}
	child, err := Execute(ctx, childPlan)
	if err != nil {
		return nil, nil, err
	}
	if child.RowIDs == nil && len(child.Rows) > 0 {
		return nil, nil, fmt.Errorf("exec: %s child lost row identities", stmt)
	}
	tbl := ctx.DB.Table(table)
	if tbl == nil {
		return nil, nil, fmt.Errorf("exec: table %q does not exist", table)
	}
	return tbl, child, nil
}

// writeRows writes rows one by one inside kind's OU bracket, charging
// perRow operator logic after each write, and closes the bracket over the
// rows written: all of them, or those before the write that failed.
func writeRows(ctx *Ctx, kind ou.Kind, tbl *storage.Table, rows []storage.Tuple, perRow float64, write func(i int, r storage.Tuple) error) (*Batch, error) {
	start := ctx.Tracker.Start()
	var err error
	n := 0
	for ; n < len(rows); n++ {
		if err = write(n, rows[n]); err != nil {
			break
		}
		ctx.compute(perRow)
	}
	width := float64(tbl.Meta.Schema.TupleBytes())
	cols := float64(tbl.Meta.Schema.NumColumns())
	ctx.Tracker.Stop(kind, ou.ExecFeatures(float64(n), cols, width, 0, 0, 1, ctx.compiled()), start)
	if err != nil {
		return nil, err
	}
	return &Batch{}, nil
}
