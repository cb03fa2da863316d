package workload

import (
	"fmt"
	"sort"
	"strings"

	"mb2/internal/engine"
	"mb2/internal/fold"
	"mb2/internal/storage"
)

// Stream is a deterministic serial transaction stream plus the schema it
// runs against. Each transaction's row writes are resolved against the
// generator's own model of the database, so every update or delete names a
// live row and every insert predicts its RowID (serial inserts allocate
// sequentially). The crash sweep, the failover drill and mb2-server -repl
// run a Stream through Apply and judge what they recover by ModelAfter.
type Stream struct {
	Name   string
	Schema Schema
	Txns   []Txn
}

// Effect kinds of one transaction's write set.
const (
	effInsert = iota
	effUpdate
	effDelete
)

// effect is one row write: the unit both the live execution and the model
// oracle consume, so they cannot disagree about intent.
type effect struct {
	kind  int
	table int // index into the schema's tables
	row   storage.RowID
	data  storage.Tuple // nil for deletes
}

// Txn is one generated transaction. An aborted transaction executes its
// effects and rolls back: its write records reach the log with no commit
// record, which is exactly the ghost-write hazard recovery must discard.
type Txn struct {
	effects []effect
	Abort   bool
}

// Apply executes one generated transaction through the engine's write
// path: versioned writes, index entries, redo logging, commit-ordered
// commit record (or rollback). An update or delete reads its before-image
// uncharged. tables are the stream schema's tables, in declaration order.
func Apply(db *engine.DB, tables []*storage.Table, ct Txn) error {
	tx := db.Txns.Begin(nil)
	for _, e := range ct.effects {
		tbl := tables[e.table]
		if e.kind == effInsert {
			row, err := db.Insert(tx, nil, tbl, e.data, 1)
			if err != nil {
				return err
			}
			if row != e.row {
				return fmt.Errorf("insert allocated row %d, generator predicted %d", row, e.row)
			}
			continue
		}
		old, err := tbl.Read(nil, e.row, tx.ID, tx.ReadTS)
		if err != nil {
			return fmt.Errorf("read before-image: %w", err)
		}
		if e.kind == effUpdate {
			err = db.Update(tx, nil, tbl, e.row, old, e.data, 1)
		} else {
			err = db.Delete(tx, nil, tbl, e.row, old, 1)
		}
		if err != nil {
			return fmt.Errorf("write: %w", err)
		}
	}
	if ct.Abort {
		return db.Abort(tx, nil)
	}
	_, err := db.CommitLogged(tx, nil, nil)
	return err
}

// State is a database's committed rows in the oracle's rendering: table/row
// -> tuple.
type State map[string]string

// ModelAfter folds the first k committed transactions' effects into the
// canonical rendering: the independent oracle a recovered or promoted state
// is compared against. Aborted transactions never contribute.
func (s Stream) ModelAfter(k uint64) State {
	state := make(State)
	committed := uint64(0)
	for _, ct := range s.Txns {
		if ct.Abort {
			continue
		}
		if committed == k {
			break
		}
		committed++
		for _, e := range ct.effects {
			key := fmt.Sprintf("%s/%d", s.Schema.Tables[e.table].Name, e.row)
			if e.kind == effDelete {
				delete(state, key)
			} else {
				state[key] = RenderTuple(e.data)
			}
		}
	}
	return state
}

// RenderTuple renders a tuple as its values with their kinds (INT64:7), so
// two renderings are equal only if every value has the same kind and the
// same printed form.
func RenderTuple(data storage.Tuple) string {
	parts := make([]string, len(data))
	for i, v := range data {
		parts[i] = v.Kind.String() + ":" + v.String()
	}
	return strings.Join(parts, ",")
}

// CaptureState snapshots every visible tuple at readTS, in the same
// rendering the oracle uses.
func CaptureState(tables []*storage.Table, readTS uint64) State {
	out := make(State)
	for _, tbl := range tables {
		tbl.Scan(nil, 0, readTS, func(row storage.RowID, data storage.Tuple) bool {
			out[fmt.Sprintf("%s/%d", tbl.Meta.Name, row)] = RenderTuple(data)
			return true
		})
	}
	return out
}

// Digest hashes the state in a canonical order; serial replays of the same
// seed must produce the same digest.
func (s State) Digest() uint64 {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	d := fold.New()
	for _, k := range keys {
		fmt.Fprintf(&d, "%s=%s\n", k, s[k])
	}
	return d.Sum64()
}

// Diff returns the first difference between s (what a database holds) and
// want (what it should hold): a lost row, a changed row, or a ghost row.
func (s State) Diff(want State) error {
	for k, w := range want {
		g, ok := s[k]
		if !ok {
			return fmt.Errorf("committed row %s lost (want %q)", k, w)
		}
		if g != w {
			return fmt.Errorf("row %s = %q, want %q", k, g, w)
		}
	}
	for k, g := range s {
		if _, ok := want[k]; !ok {
			return fmt.Errorf("ghost row %s = %q (not committed)", k, g)
		}
	}
	return nil
}
