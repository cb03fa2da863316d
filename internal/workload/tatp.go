package workload

import (
	"math/rand"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/plan"
	"mb2/internal/runner"
	"mb2/internal/storage"
)

// TATP is the telecom OLTP benchmark: four tables and seven transaction
// types over a cellphone registration service. Scale 1.0 loads 10,000
// subscribers.
type TATP struct{}

// Name implements Benchmark.
func (TATP) Name() string { return "tatp" }

const tatpSubscribers = 10000

// tatpSchema is TATP's four tables and their (non-unique) primary-key
// indexes.
var tatpSchema = Schema{
	Tables: []Table{
		{"subscriber", []catalog.Column{ic("s_id"), ic("bit_1"), ic("hex_1"), ic("byte2_1"), ic("vlr_location")}},
		{"access_info", []catalog.Column{ic("ai_s_id"), ic("ai_type"), ic("data1"), ic("data2")}},
		{"special_facility", []catalog.Column{ic("sf_s_id"), ic("sf_type"), ic("is_active"), ic("data_a")}},
		{"call_forwarding", []catalog.Column{ic("cf_s_id"), ic("cf_sf_type"), ic("start_time"), ic("end_time"), ic("numberx")}},
	},
	Indexes: []Index{
		{"subscriber_pk", "subscriber", []string{"s_id"}},
		{"access_info_pk", "access_info", []string{"ai_s_id", "ai_type"}},
		{"special_facility_pk", "special_facility", []string{"sf_s_id", "sf_type"}},
		{"call_forwarding_pk", "call_forwarding", []string{"cf_s_id", "cf_sf_type"}},
	},
}

// Positions of the tables the serial stream writes.
const (
	tatpSubscriber     = 0
	tatpCallForwarding = 3
)

// subscriber draws subscriber s_id's row.
func subscriber(rng *rand.Rand, id int64) storage.Tuple {
	return storage.Tuple{storage.NewInt(id),
		storage.NewInt(pick(rng, 2)), storage.NewInt(pick(rng, 16)),
		storage.NewInt(pick(rng, 256)), storage.NewInt(rng.Int63n(1 << 30))}
}

// callForwarding draws a call_forwarding row of subscriber sid's facility
// sfType: one of three 8-hour windows and a forwarding number.
func callForwarding(rng *rand.Rand, sid, sfType int64) storage.Tuple {
	start := pick(rng, 3) * 8
	return storage.Tuple{storage.NewInt(sid), storage.NewInt(sfType),
		storage.NewInt(start), storage.NewInt(start + 8), storage.NewInt(rng.Int63n(1 << 30))}
}

// Load implements Benchmark.
func (TATP) Load(db *engine.DB, scale float64, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	subs := int(float64(tatpSubscribers) * scale)
	if subs < 1 {
		subs = 1
	}
	if err := tatpSchema.createTables(db); err != nil {
		return err
	}

	var rows []storage.Tuple
	for i := 0; i < subs; i++ {
		rows = append(rows, subscriber(rng, int64(i)))
	}
	if err := db.BulkLoad("subscriber", rows); err != nil {
		return err
	}

	rows = nil
	for i := 0; i < subs; i++ {
		for t := 0; t < int(pick(rng, 4))+1; t++ {
			rows = append(rows, storage.Tuple{storage.NewInt(int64(i)), storage.NewInt(int64(t)),
				storage.NewInt(pick(rng, 256)), storage.NewInt(pick(rng, 256))})
		}
	}
	if err := db.BulkLoad("access_info", rows); err != nil {
		return err
	}

	rows = nil
	var cf []storage.Tuple
	for i := 0; i < subs; i++ {
		for t := 0; t < int(pick(rng, 4))+1; t++ {
			rows = append(rows, storage.Tuple{storage.NewInt(int64(i)), storage.NewInt(int64(t)),
				storage.NewInt(pick(rng, 2)), storage.NewInt(pick(rng, 256))})
			if pick(rng, 2) == 0 {
				cf = append(cf, callForwarding(rng, int64(i), int64(t)))
			}
		}
	}
	if err := db.BulkLoad("special_facility", rows); err != nil {
		return err
	}
	if err := db.BulkLoad("call_forwarding", cf); err != nil {
		return err
	}
	return tatpSchema.createIndexes(db)
}

// Procedures returns TATP's seven transaction types.
func (TATP) Procedures() []Procedure {
	point := func(table, index string, vals ...int64) *plan.IdxScanNode {
		return &plan.IdxScanNode{Table: table, Index: index, Eq: keys(vals...), Rows: est(1, 1)}
	}
	subs := func(db *engine.DB) int { return int(db.RowCount("subscriber")) }

	return []Procedure{
		{Name: "GetSubscriberData", Make: func(db *engine.DB, rng *rand.Rand) []plan.Node {
			return []plan.Node{point("subscriber", "subscriber_pk", pick(rng, subs(db)))}
		}},
		{Name: "GetNewDestination", Make: func(db *engine.DB, rng *rand.Rand) []plan.Node {
			s := pick(rng, subs(db))
			t := pick(rng, 4)
			return []plan.Node{
				point("special_facility", "special_facility_pk", s, t),
				&plan.IdxScanNode{Table: "call_forwarding", Index: "call_forwarding_pk",
					Eq:     keys(s, t),
					Filter: plan.Cmp{Op: plan.LE, L: plan.Col(2), R: plan.IntConst(8)},
					Rows:   est(1, 1)},
			}
		}},
		{Name: "GetAccessData", Make: func(db *engine.DB, rng *rand.Rand) []plan.Node {
			return []plan.Node{point("access_info", "access_info_pk", pick(rng, subs(db)), pick(rng, 4))}
		}},
		{Name: "UpdateSubscriberData", Make: func(db *engine.DB, rng *rand.Rand) []plan.Node {
			s := pick(rng, subs(db))
			return []plan.Node{
				&plan.UpdateNode{
					Child: point("subscriber", "subscriber_pk", s), Table: "subscriber",
					SetCols:  []int{1},
					SetExprs: []plan.Expr{plan.IntConst(pick(rng, 2))},
					Rows:     est(1, 1),
				},
				&plan.UpdateNode{
					Child: point("special_facility", "special_facility_pk", s, pick(rng, 4)),
					Table: "special_facility", SetCols: []int{3},
					SetExprs: []plan.Expr{plan.IntConst(pick(rng, 256))},
					Rows:     est(1, 1),
				},
			}
		}},
		{Name: "UpdateLocation", Make: func(db *engine.DB, rng *rand.Rand) []plan.Node {
			return []plan.Node{&plan.UpdateNode{
				Child: point("subscriber", "subscriber_pk", pick(rng, subs(db))), Table: "subscriber",
				SetCols:  []int{4},
				SetExprs: []plan.Expr{plan.IntConst(rng.Int63n(1 << 30))},
				Rows:     est(1, 1),
			}}
		}},
		{Name: "InsertCallForwarding", Make: func(db *engine.DB, rng *rand.Rand) []plan.Node {
			s := pick(rng, subs(db))
			t := pick(rng, 4)
			return []plan.Node{
				point("subscriber", "subscriber_pk", s),
				point("special_facility", "special_facility_pk", s, t),
				&plan.InsertNode{Table: "call_forwarding", Tuples: []storage.Tuple{{
					storage.NewInt(s), storage.NewInt(t), storage.NewInt(pick(rng, 3) * 8),
					storage.NewInt(pick(rng, 3)*8 + 8), storage.NewInt(rng.Int63n(1 << 30))}}},
			}
		}},
		{Name: "DeleteCallForwarding", Make: func(db *engine.DB, rng *rand.Rand) []plan.Node {
			s := pick(rng, subs(db))
			t := pick(rng, 4)
			return []plan.Node{&plan.DeleteNode{
				Child: point("call_forwarding", "call_forwarding_pk", s, t),
				Table: "call_forwarding",
				Rows:  est(1, 1),
			}}
		}},
	}
}

// Templates implements Benchmark.
func (b TATP) Templates(db *engine.DB, seed int64) []runner.QueryTemplate {
	return readTemplates(b.Procedures(), db, seed)
}

// Stream generates a serial stream over subscriber and call_forwarding: the
// first six transactions register subscribers, then location updates
// (UpdateLocation), forwarding-entry churn (InsertCallForwarding,
// DeleteCallForwarding) and deliberately aborted location updates, in
// TATP's row layouts.
func (TATP) Stream(seed int64, txns int) Stream {
	s := Stream{Name: "tatp", Schema: tatpSchema}
	type sub struct {
		row  storage.RowID
		data storage.Tuple
	}
	var (
		subs             []sub
		fwds             []storage.RowID // live call_forwarding rows
		nextSub, nextFwd storage.RowID
	)
	rng := rand.New(rand.NewSource(seed ^ 0x7a79))
	relocate := func(x sub) effect {
		data := append(storage.Tuple(nil), x.data...)
		data[4] = storage.NewInt(rng.Int63n(1 << 30)) // vlr_location
		return effect{effUpdate, tatpSubscriber, x.row, data}
	}
	for t := 0; t < txns; t++ {
		if t < 6 {
			x := sub{row: nextSub, data: subscriber(rng, int64(t))}
			nextSub++
			subs = append(subs, x)
			s.Txns = append(s.Txns, Txn{effects: []effect{{effInsert, tatpSubscriber, x.row, x.data}}})
			continue
		}
		x := &subs[rng.Intn(len(subs))]
		var ct Txn
		switch p := rng.Intn(100); {
		case p >= 85: // an aborted UpdateLocation
			ct = Txn{effects: []effect{relocate(*x)}, Abort: true}
		case p >= 50 && p < 70: // InsertCallForwarding
			ct.effects = []effect{{effInsert, tatpCallForwarding, nextFwd,
				callForwarding(rng, x.data[0].I, pick(rng, 4))}}
			fwds = append(fwds, nextFwd)
			nextFwd++
		case p >= 70 && len(fwds) > 0: // DeleteCallForwarding
			i := rng.Intn(len(fwds))
			ct.effects = []effect{{effDelete, tatpCallForwarding, fwds[i], nil}}
			fwds = append(fwds[:i], fwds[i+1:]...)
		default: // UpdateLocation, also when nothing is forwarded to delete
			ct.effects = []effect{relocate(*x)}
			x.data = ct.effects[0].data
		}
		s.Txns = append(s.Txns, ct)
	}
	return s
}
