package workload

import (
	"fmt"
	"math/rand"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/plan"
	"mb2/internal/runner"
	"mb2/internal/storage"
)

// SmallBank is the banking OLTP benchmark: three tables and five
// transaction types modeling customers interacting with a bank branch.
// Scale 1.0 loads 10,000 accounts.
type SmallBank struct{}

// Name implements Benchmark.
func (SmallBank) Name() string { return "smallbank" }

const smallbankAccounts = 10000

// smallBankSchema holds one customer per row of each table, keyed by
// customer id; the primary-key indexes are unique.
var smallBankSchema = Schema{
	Tables: []Table{
		{"accounts", []catalog.Column{ic("custid"), {Name: "name", Type: catalog.Varchar, Width: 20}}},
		{"savings", []catalog.Column{ic("sv_custid"), fc("sv_bal")}},
		{"checking", []catalog.Column{ic("ck_custid"), fc("ck_bal")}},
	},
	Indexes: []Index{
		{"accounts_pk", "accounts", []string{"custid"}},
		{"savings_pk", "savings", []string{"sv_custid"}},
		{"checking_pk", "checking", []string{"ck_custid"}},
	},
	Unique: true,
}

// Schema returns SmallBank's tables (accounts, savings, checking, in that
// order) and their unique primary-key indexes.
func (SmallBank) Schema() Schema { return smallBankSchema }

// Load implements Benchmark.
func (SmallBank) Load(db *engine.DB, scale float64, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	accounts := int(float64(smallbankAccounts) * scale)
	if accounts < 1 {
		accounts = 1
	}
	if err := smallBankSchema.createTables(db); err != nil {
		return err
	}

	var acc, sav, chk []storage.Tuple
	for i := 0; i < accounts; i++ {
		acc = append(acc, storage.Tuple{storage.NewInt(int64(i)), storage.NewString("customer")})
		sav = append(sav, storage.Tuple{storage.NewInt(int64(i)), storage.NewFloat(rng.Float64() * 10000)})
		chk = append(chk, storage.Tuple{storage.NewInt(int64(i)), storage.NewFloat(rng.Float64() * 10000)})
	}
	if err := db.BulkLoad("accounts", acc); err != nil {
		return err
	}
	if err := db.BulkLoad("savings", sav); err != nil {
		return err
	}
	if err := db.BulkLoad("checking", chk); err != nil {
		return err
	}
	return smallBankSchema.createIndexes(db)
}

// Procedures returns SmallBank's five transaction types.
func (SmallBank) Procedures() []Procedure {
	point := func(table, index string, id int64) *plan.IdxScanNode {
		return &plan.IdxScanNode{Table: table, Index: index, Eq: keys(id), Rows: est(1, 1)}
	}
	addTo := func(table, index string, id int64, col int, delta float64) *plan.UpdateNode {
		return &plan.UpdateNode{
			Child: point(table, index, id), Table: table,
			SetCols:  []int{col},
			SetExprs: []plan.Expr{plan.Arith{Op: plan.Add, L: plan.Col(col), R: plan.FloatConst(delta)}},
			Rows:     est(1, 1),
		}
	}
	accounts := func(db *engine.DB) int { return int(db.RowCount("accounts")) }

	return []Procedure{
		{Name: "Balance", Make: func(db *engine.DB, rng *rand.Rand) []plan.Node {
			id := pick(rng, accounts(db))
			return []plan.Node{
				point("accounts", "accounts_pk", id),
				point("savings", "savings_pk", id),
				point("checking", "checking_pk", id),
			}
		}},
		{Name: "DepositChecking", Make: func(db *engine.DB, rng *rand.Rand) []plan.Node {
			id := pick(rng, accounts(db))
			return []plan.Node{
				point("accounts", "accounts_pk", id),
				addTo("checking", "checking_pk", id, 1, 1.3),
			}
		}},
		{Name: "TransactSavings", Make: func(db *engine.DB, rng *rand.Rand) []plan.Node {
			id := pick(rng, accounts(db))
			return []plan.Node{
				point("accounts", "accounts_pk", id),
				addTo("savings", "savings_pk", id, 1, 20.2),
			}
		}},
		{Name: "Amalgamate", Make: func(db *engine.DB, rng *rand.Rand) []plan.Node {
			a := pick(rng, accounts(db))
			b := pick(rng, accounts(db))
			return []plan.Node{
				point("accounts", "accounts_pk", a),
				point("accounts", "accounts_pk", b),
				point("savings", "savings_pk", a),
				addTo("savings", "savings_pk", a, 1, -100),
				addTo("checking", "checking_pk", b, 1, 100),
			}
		}},
		{Name: "WriteCheck", Make: func(db *engine.DB, rng *rand.Rand) []plan.Node {
			id := pick(rng, accounts(db))
			return []plan.Node{
				point("accounts", "accounts_pk", id),
				point("savings", "savings_pk", id),
				addTo("checking", "checking_pk", id, 1, -5.0),
			}
		}},
	}
}

// Templates implements Benchmark.
func (b SmallBank) Templates(db *engine.DB, seed int64) []runner.QueryTemplate {
	return readTemplates(b.Procedures(), db, seed)
}

// OpKind enumerates the SmallBank transaction kinds the seeded draw emits:
// the benchmark's balance read, deposit, transfer and write-check shapes,
// plus account creation and removal (insert, delete and index maintenance)
// and an auditor that reads every balance at one snapshot.
type OpKind int

// Drawn transaction kinds.
const (
	// OpBalance reads one customer's row in all three tables through the
	// primary-key indexes inside a read-only transaction.
	OpBalance OpKind = iota
	// OpDeposit adds Amount to one checking balance.
	OpDeposit
	// OpTransfer moves Amount from one customer's savings to another's
	// checking (SmallBank's Amalgamate shape).
	OpTransfer
	// OpWriteCheck reads both balances and debits checking by Amount, plus
	// a one-unit overdraft penalty when the two balances do not cover it.
	OpWriteCheck
	// OpInsert creates a fresh customer: savings opens with Amount (see
	// NewAccount).
	OpInsert
	// OpDelete removes a customer from all three tables.
	OpDelete
	// OpAudit sums every committed balance at one snapshot (read-only).
	OpAudit
)

// Op is one drawn SmallBank transaction. A and B are account selectors,
// reduced modulo the account count by whoever resolves them (A picks the
// debited or only account, B the credited or deleted one); Abort marks a
// write transaction that deliberately rolls back after doing its work.
type Op struct {
	Kind   OpKind
	A, B   int
	Amount float64
	Abort  bool
}

// Draw draws one transaction from the mix: ~20% balance reads, ~55% balance
// writes, ~15% schema-shape churn (insert/delete), ~7% audits, and a 10%
// deliberate-abort rate on write transactions.
func (SmallBank) Draw(rng *rand.Rand) Op {
	op := Op{A: rng.Intn(1 << 30), B: rng.Intn(1 << 30)}
	roll := rng.Intn(100)
	switch {
	case roll < 20:
		op.Kind = OpBalance
	case roll < 45:
		op.Kind = OpDeposit
		op.Amount = float64(rng.Intn(2000))/100 + 0.25
	case roll < 63:
		op.Kind = OpTransfer
		op.Amount = float64(rng.Intn(10000)) / 100
	case roll < 78:
		op.Kind = OpWriteCheck
		op.Amount = float64(rng.Intn(500))/100 + 1
	case roll < 86:
		op.Kind = OpInsert
		op.Amount = float64(rng.Intn(100000)) / 100
	case roll < 93:
		op.Kind = OpDelete
	default:
		op.Kind = OpAudit
	}
	switch op.Kind {
	case OpDeposit, OpTransfer, OpWriteCheck, OpInsert, OpDelete:
		op.Abort = rng.Intn(10) == 0
	}
	return op
}

// Opening draws the committed account creation that seeds a run.
func (SmallBank) Opening(rng *rand.Rand) Op {
	return Op{Kind: OpInsert, Amount: float64(rng.Intn(100_000)) / 100}
}

// NewAccount returns the rows an OpInsert of customer id writes into
// accounts, savings and checking: savings opens with amount, checking with
// amount's cents modulo 50.00.
func NewAccount(id int64, amount float64) [3]storage.Tuple {
	return [3]storage.Tuple{
		{storage.NewInt(id), storage.NewString(fmt.Sprintf("cust-%06d", id))},
		{storage.NewInt(id), storage.NewFloat(amount)},
		{storage.NewInt(id), storage.NewFloat(float64(int(amount*100)%5000) / 100)},
	}
}

// Stream resolves txns seeded draws into a serial stream over the three
// tables. The first six transactions open accounts; after that each draw is
// resolved against the generator's own account model, and a kind the model
// cannot serve — a read-only kind, or a write when no account is live —
// draws again. Aborted transactions execute and roll back; an aborted
// insert still consumes its RowIDs (the heap slot is allocated, only the
// version is rolled back) and its customer id.
func (b SmallBank) Stream(seed int64, txns int) Stream {
	s := Stream{Name: "smallbank", Schema: smallBankSchema}
	type acct struct {
		id       int64
		row      storage.RowID // the customer's row in every table
		sav, chk float64
	}
	var (
		live   []acct // in creation order
		nextID int64
		next   storage.RowID
	)
	balance := func(table int, a acct, bal float64) effect {
		return effect{effUpdate, table, a.row, storage.Tuple{storage.NewInt(a.id), storage.NewFloat(bal)}}
	}
	rng := rand.New(rand.NewSource(seed ^ 0xc4a54))
	for t := 0; t < txns; t++ {
		var op Op
		if t < 6 {
			op = b.Opening(rng)
		} else {
			op = b.Draw(rng)
			for op.Kind == OpBalance || op.Kind == OpAudit || (op.Kind != OpInsert && len(live) == 0) {
				op = b.Draw(rng)
			}
		}
		ct := Txn{Abort: op.Abort}
		switch op.Kind {
		case OpInsert:
			a := acct{id: nextID, row: next}
			rows := NewAccount(a.id, op.Amount)
			for i, data := range rows {
				ct.effects = append(ct.effects, effect{effInsert, i, a.row, data})
			}
			a.sav, a.chk = rows[1][1].Float(), rows[2][1].Float()
			nextID++
			next++
			if !op.Abort {
				live = append(live, a)
			}
		case OpDeposit:
			a := &live[op.A%len(live)]
			ct.effects = []effect{balance(2, *a, a.chk+op.Amount)}
			if !op.Abort {
				a.chk += op.Amount
			}
		case OpTransfer:
			a, c := &live[op.A%len(live)], &live[op.B%len(live)]
			ct.effects = []effect{balance(1, *a, a.sav-op.Amount), balance(2, *c, c.chk+op.Amount)}
			if !op.Abort {
				a.sav -= op.Amount
				c.chk += op.Amount
			}
		case OpWriteCheck:
			a := &live[op.A%len(live)]
			amount := op.Amount
			if a.sav+a.chk < amount {
				amount++ // overdraft penalty
			}
			ct.effects = []effect{balance(2, *a, a.chk-amount)}
			if !op.Abort {
				a.chk -= amount
			}
		case OpDelete:
			i := op.B % len(live)
			for table := range smallBankSchema.Tables {
				ct.effects = append(ct.effects, effect{effDelete, table, live[i].row, nil})
			}
			if !op.Abort {
				live = append(live[:i], live[i+1:]...)
			}
		}
		s.Txns = append(s.Txns, ct)
	}
	return s
}
