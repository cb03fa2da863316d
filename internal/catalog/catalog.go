// Package catalog holds the metadata layer of the DBMS: table and index
// definitions, column types, and the tunable knobs that MB2's behavior
// models must reason about (Sec 4.2).
package catalog

import (
	"fmt"
	"sort"
	"sync"
)

// Type is a column type.
type Type int

// Supported column types.
const (
	Int64 Type = iota
	Float64
	Varchar
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case Int64:
		return "INT64"
	case Float64:
		return "FLOAT64"
	case Varchar:
		return "VARCHAR"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Width returns the modeled in-memory width of a value of this type in
// bytes. Varchar uses a representative average width; the per-column Width
// field overrides it.
func (t Type) Width() int {
	switch t {
	case Int64, Float64:
		return 8
	default:
		return 16
	}
}

// Column describes one attribute of a table.
type Column struct {
	Name  string
	Type  Type
	Width int // bytes; 0 means Type.Width()
}

// ByteWidth returns the modeled width of the column in bytes.
func (c Column) ByteWidth() int {
	if c.Width > 0 {
		return c.Width
	}
	return c.Type.Width()
}

// Schema is an ordered list of columns.
type Schema struct {
	Columns []Column
}

// NewSchema builds a schema from columns.
func NewSchema(cols ...Column) Schema { return Schema{Columns: cols} }

// NumColumns returns the attribute count.
func (s Schema) NumColumns() int { return len(s.Columns) }

// TupleBytes returns the modeled width of one tuple.
func (s Schema) TupleBytes() int {
	total := 0
	for _, c := range s.Columns {
		total += c.ByteWidth()
	}
	return total
}

// ColumnIndex returns the position of the named column, or -1.
func (s Schema) ColumnIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Project returns the schema restricted to the given column positions.
func (s Schema) Project(cols []int) Schema {
	out := Schema{Columns: make([]Column, len(cols))}
	for i, c := range cols {
		out.Columns[i] = s.Columns[c]
	}
	return out
}

// TableMeta is the catalog entry for a table.
type TableMeta struct {
	ID     int
	Name   string
	Schema Schema
}

// IndexMeta is the catalog entry for an index.
type IndexMeta struct {
	ID      int
	Name    string
	TableID int
	KeyCols []int // positions of key columns in the table schema
	Unique  bool
}

// Catalog is the thread-safe registry of tables and indexes.
type Catalog struct {
	mu      sync.RWMutex
	nextID  int
	tables  map[string]*TableMeta
	indexes map[string]*IndexMeta
	byTable map[int][]*IndexMeta
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		nextID:  1,
		tables:  make(map[string]*TableMeta),
		indexes: make(map[string]*IndexMeta),
		byTable: make(map[int][]*IndexMeta),
	}
}

// CreateTable registers a table and returns its metadata.
func (c *Catalog) CreateTable(name string, schema Schema) (*TableMeta, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[name]; ok {
		return nil, fmt.Errorf("catalog: table %q already exists", name)
	}
	t := &TableMeta{ID: c.nextID, Name: name, Schema: schema}
	c.nextID++
	c.tables[name] = t
	return t, nil
}

// Table looks up a table by name.
func (c *Catalog) Table(name string) (*TableMeta, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("catalog: table %q does not exist", name)
	}
	return t, nil
}

// CreateIndex registers an index over a table's key columns.
func (c *Catalog) CreateIndex(name, tableName string, keyCols []string, unique bool) (*IndexMeta, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[tableName]
	if !ok {
		return nil, fmt.Errorf("catalog: table %q does not exist", tableName)
	}
	if _, ok := c.indexes[name]; ok {
		return nil, fmt.Errorf("catalog: index %q already exists", name)
	}
	cols := make([]int, len(keyCols))
	for i, k := range keyCols {
		pos := t.Schema.ColumnIndex(k)
		if pos < 0 {
			return nil, fmt.Errorf("catalog: column %q not in table %q", k, tableName)
		}
		cols[i] = pos
	}
	idx := &IndexMeta{ID: c.nextID, Name: name, TableID: t.ID, KeyCols: cols, Unique: unique}
	c.nextID++
	c.indexes[name] = idx
	c.byTable[t.ID] = append(c.byTable[t.ID], idx)
	return idx, nil
}

// DropIndex removes an index by name.
func (c *Catalog) DropIndex(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	idx, ok := c.indexes[name]
	if !ok {
		return fmt.Errorf("catalog: index %q does not exist", name)
	}
	delete(c.indexes, name)
	// Copy-on-write: a slice TableIndexes handed out keeps its contents.
	var kept []*IndexMeta
	for _, m := range c.byTable[idx.TableID] {
		if m.ID != idx.ID {
			kept = append(kept, m)
		}
	}
	c.byTable[idx.TableID] = kept
	return nil
}

// RenameIndex changes an index's name (e.g. promoting a concurrently built
// index to its public name once construction finishes).
func (c *Catalog) RenameIndex(old, new string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	idx, ok := c.indexes[old]
	if !ok {
		return fmt.Errorf("catalog: index %q does not exist", old)
	}
	if _, ok := c.indexes[new]; ok {
		return fmt.Errorf("catalog: index %q already exists", new)
	}
	delete(c.indexes, old)
	idx.Name = new
	c.indexes[new] = idx
	return nil
}

// Index looks up an index by name.
func (c *Catalog) Index(name string) (*IndexMeta, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	idx, ok := c.indexes[name]
	if !ok {
		return nil, fmt.Errorf("catalog: index %q does not exist", name)
	}
	return idx, nil
}

// TableIndexes returns the indexes defined over a table, without copying:
// the slice is capacity-capped, so a caller's append copies, and the list is
// never changed in place (CreateIndex appends past every handed-out length,
// DropIndex builds a fresh list). Callers must not write its elements.
func (c *Catalog) TableIndexes(tableID int) []*IndexMeta {
	c.mu.RLock()
	defer c.mu.RUnlock()
	list := c.byTable[tableID]
	return list[:len(list):len(list)]
}

// Tables returns all table names, sorted. Callers iterate the result to
// rebuild state (e.g. index recovery), so the order must not depend on map
// iteration.
func (c *Catalog) Tables() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
