package catalog

import "testing"

func sampleSchema() Schema {
	return NewSchema(
		Column{Name: "id", Type: Int64},
		Column{Name: "balance", Type: Float64},
		Column{Name: "name", Type: Varchar, Width: 24},
	)
}

func TestSchemaBasics(t *testing.T) {
	s := sampleSchema()
	if s.NumColumns() != 3 {
		t.Fatalf("NumColumns = %d", s.NumColumns())
	}
	if got := s.TupleBytes(); got != 8+8+24 {
		t.Fatalf("TupleBytes = %d, want 40", got)
	}
	if s.ColumnIndex("balance") != 1 {
		t.Fatalf("ColumnIndex(balance) = %d", s.ColumnIndex("balance"))
	}
	if s.ColumnIndex("missing") != -1 {
		t.Fatal("missing column must return -1")
	}
}

func TestTypeDefaults(t *testing.T) {
	if Int64.Width() != 8 || Float64.Width() != 8 || Varchar.Width() != 16 {
		t.Fatal("type widths wrong")
	}
	if Int64.String() != "INT64" || Varchar.String() != "VARCHAR" {
		t.Fatal("type names wrong")
	}
}

func TestCreateAndLookupTable(t *testing.T) {
	c := New()
	meta, err := c.CreateTable("accounts", sampleSchema())
	if err != nil {
		t.Fatal(err)
	}
	if meta.ID == 0 {
		t.Fatal("table must get a nonzero ID")
	}
	got, err := c.Table("accounts")
	if err != nil || got.ID != meta.ID {
		t.Fatalf("lookup failed: %v %v", got, err)
	}
	if _, err := c.CreateTable("accounts", sampleSchema()); err == nil {
		t.Fatal("duplicate table must error")
	}
	if _, err := c.Table("nope"); err == nil {
		t.Fatal("missing table must error")
	}
}

func TestCreateDropIndex(t *testing.T) {
	c := New()
	if _, err := c.CreateTable("accounts", sampleSchema()); err != nil {
		t.Fatal(err)
	}
	idx, err := c.CreateIndex("accounts_pk", "accounts", []string{"id"}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.KeyCols) != 1 || idx.KeyCols[0] != 0 {
		t.Fatalf("key cols wrong: %v", idx.KeyCols)
	}
	tbl, _ := c.Table("accounts")
	if got := c.TableIndexes(tbl.ID); len(got) != 1 {
		t.Fatalf("TableIndexes = %v", got)
	}
	if _, err := c.CreateIndex("bad", "accounts", []string{"ghost"}, false); err == nil {
		t.Fatal("unknown column must error")
	}
	if _, err := c.CreateIndex("bad", "ghost", []string{"id"}, false); err == nil {
		t.Fatal("unknown table must error")
	}
	if err := c.DropIndex("accounts_pk"); err != nil {
		t.Fatal(err)
	}
	if got := c.TableIndexes(tbl.ID); len(got) != 0 {
		t.Fatalf("index not removed: %v", got)
	}
	if err := c.DropIndex("accounts_pk"); err == nil {
		t.Fatal("double drop must error")
	}
}

// TestTableIndexesIsCopyOnWrite pins the contract that lets TableIndexes
// hand out its list without copying: a slice taken before DropIndex keeps
// its contents, and appending to a returned slice cannot change the catalog.
func TestTableIndexesIsCopyOnWrite(t *testing.T) {
	c := New()
	tbl, err := c.CreateTable("accounts", sampleSchema())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c"} {
		if _, err := c.CreateIndex(name, "accounts", []string{"id"}, false); err != nil {
			t.Fatal(err)
		}
	}
	before := c.TableIndexes(tbl.ID)
	if err := c.DropIndex("a"); err != nil {
		t.Fatal(err)
	}
	if len(before) != 3 || before[0].Name != "a" || before[1].Name != "b" || before[2].Name != "c" {
		t.Fatalf("slice taken before DropIndex changed: %v", before)
	}
	got := c.TableIndexes(tbl.ID)
	if len(got) != 2 || got[0].Name != "b" || got[1].Name != "c" {
		t.Fatalf("TableIndexes after drop = %v", got)
	}
	_ = append(got, &IndexMeta{Name: "ghost"})
	if _, err := c.CreateIndex("d", "accounts", []string{"id"}, false); err != nil {
		t.Fatal(err)
	}
	after := c.TableIndexes(tbl.ID)
	if len(after) != 3 || after[0].Name != "b" || after[1].Name != "c" || after[2].Name != "d" {
		t.Fatalf("appending to a returned slice changed the catalog: %v", after)
	}
	if len(got) != 2 || got[1].Name != "c" {
		t.Fatalf("CreateIndex changed a handed-out slice: %v", got)
	}
}

func TestDefaultKnobs(t *testing.T) {
	k := DefaultKnobs()
	if k.ExecutionMode != Interpret {
		t.Fatal("default execution mode must be interpret")
	}
	if k.LogBufferBytes <= 0 || k.PartitionCount <= 0 || k.ScanDOP <= 0 {
		t.Fatalf("bad defaults: %+v", k)
	}
	if Interpret.String() != "INTERPRET" || Compile.String() != "COMPILE" {
		t.Fatal("mode names wrong")
	}
}

func TestRenameIndex(t *testing.T) {
	c := New()
	if _, err := c.CreateTable("accounts", sampleSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateIndex("building", "accounts", []string{"id"}, false); err != nil {
		t.Fatal(err)
	}
	if err := c.RenameIndex("building", "live"); err != nil {
		t.Fatal(err)
	}
	if err := c.RenameIndex("building", "again"); err == nil {
		t.Fatal("old name must be gone")
	}
	// The table's index list still finds it (same metadata object).
	tbl, _ := c.Table("accounts")
	if got := c.TableIndexes(tbl.ID); len(got) != 1 || got[0].Name != "live" {
		t.Fatalf("TableIndexes after rename = %v", got)
	}
	if err := c.RenameIndex("ghost", "x"); err == nil {
		t.Fatal("renaming a missing index must fail")
	}
	if _, err := c.CreateIndex("other", "accounts", []string{"id"}, false); err != nil {
		t.Fatal(err)
	}
	if err := c.RenameIndex("other", "live"); err == nil {
		t.Fatal("renaming onto an existing name must fail")
	}
}
