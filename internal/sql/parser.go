package sql

import "fmt"

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks []token
	pos  int
}

// Parse parses one SQL statement (a trailing semicolon is allowed).
func Parse(input string) (Statement, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	st, err := p.statement()
	if err != nil {
		return nil, err
	}
	p.accept(";")
	if !p.at(tkEOF, "") {
		return nil, p.errf("trailing input %q", p.cur().text)
	}
	return st, nil
}

func (p *parser) cur() token { return p.toks[p.pos] }

func (p *parser) at(kind tokenKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

// accept consumes the token if it matches (keyword or symbol).
func (p *parser) accept(text string) bool {
	t := p.cur()
	if (t.kind == tkIdent || t.kind == tkSymbol) && t.text == text {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(text string) error {
	if !p.accept(text) {
		return p.errf("expected %q, found %q", text, p.cur().text)
	}
	return nil
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sql: at offset %d: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

func (p *parser) ident() (string, error) {
	if p.cur().kind != tkIdent {
		return "", p.errf("expected identifier, found %q", p.cur().text)
	}
	s := p.cur().text
	p.pos++
	return s, nil
}

func (p *parser) statement() (Statement, error) {
	switch {
	case p.accept("select"):
		return p.selectStmt()
	case p.accept("insert"):
		return p.insertStmt()
	case p.accept("update"):
		return p.updateStmt()
	case p.accept("delete"):
		return p.deleteStmt()
	case p.accept("create"):
		if p.accept("table") {
			return p.createTable()
		}
		unique := p.accept("unique")
		if p.accept("index") {
			return p.createIndex(unique)
		}
		return nil, p.errf("expected TABLE or INDEX after CREATE")
	case p.accept("drop"):
		if err := p.expect("index"); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return DropIndexStmt{Name: name}, nil
	default:
		return nil, p.errf("unsupported statement %q", p.cur().text)
	}
}

var aggNames = map[string]bool{"count": true, "sum": true, "min": true, "max": true, "avg": true}

func (p *parser) selectStmt() (Statement, error) {
	st := SelectStmt{}
	for {
		item, err := p.selectItem()
		if err != nil {
			return nil, err
		}
		st.Items = append(st.Items, item)
		if !p.accept(",") {
			break
		}
	}
	if err := p.expect("from"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.From = table
	for p.accept("join") {
		j := JoinClause{}
		if j.Table, err = p.ident(); err != nil {
			return nil, err
		}
		if err := p.expect("on"); err != nil {
			return nil, err
		}
		if j.OnL, err = p.columnRef(); err != nil {
			return nil, err
		}
		if err := p.expect("="); err != nil {
			return nil, err
		}
		if j.OnR, err = p.columnRef(); err != nil {
			return nil, err
		}
		st.Joins = append(st.Joins, j)
	}
	if p.accept("where") {
		if st.Where, err = p.expr(); err != nil {
			return nil, err
		}
	}
	if p.accept("group") {
		if err := p.expect("by"); err != nil {
			return nil, err
		}
		for {
			c, err := p.columnRef()
			if err != nil {
				return nil, err
			}
			st.GroupBy = append(st.GroupBy, c)
			if !p.accept(",") {
				break
			}
		}
	}
	if p.accept("order") {
		if err := p.expect("by"); err != nil {
			return nil, err
		}
		for {
			c, err := p.columnRef()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Col: c}
			if p.accept("desc") {
				item.Desc = true
			} else {
				p.accept("asc")
			}
			st.OrderBy = append(st.OrderBy, item)
			if !p.accept(",") {
				break
			}
		}
	}
	if p.accept("limit") {
		n, err := p.intLiteral()
		if err != nil {
			return nil, err
		}
		st.Limit = int(n)
	}
	return st, nil
}

func (p *parser) selectItem() (SelectItem, error) {
	if p.accept("*") {
		return SelectItem{Star: true}, nil
	}
	if p.cur().kind == tkIdent && aggNames[p.cur().text] &&
		p.pos+1 < len(p.toks) && p.toks[p.pos+1].text == "(" {
		fn := p.cur().text
		p.pos += 2 // fn (
		if p.accept("*") {
			if err := p.expect(")"); err != nil {
				return SelectItem{}, err
			}
			return SelectItem{AggFn: fn, AggStar: true}, nil
		}
		e, err := p.expr()
		if err != nil {
			return SelectItem{}, err
		}
		if err := p.expect(")"); err != nil {
			return SelectItem{}, err
		}
		return SelectItem{AggFn: fn, Expr: e}, nil
	}
	e, err := p.expr()
	if err != nil {
		return SelectItem{}, err
	}
	return SelectItem{Expr: e}, nil
}

func (p *parser) insertStmt() (Statement, error) {
	if err := p.expect("into"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect("values"); err != nil {
		return nil, err
	}
	st := InsertStmt{Table: table}
	for {
		if err := p.expect("("); err != nil {
			return nil, err
		}
		var row []Literal
		for {
			lit, err := p.literal()
			if err != nil {
				return nil, err
			}
			row = append(row, lit)
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, row)
		if !p.accept(",") {
			break
		}
	}
	return st, nil
}

func (p *parser) updateStmt() (Statement, error) {
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect("set"); err != nil {
		return nil, err
	}
	st := UpdateStmt{Table: table}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect("="); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		st.Set = append(st.Set, struct {
			Col  string
			Expr Expr
		}{col, e})
		if !p.accept(",") {
			break
		}
	}
	if p.accept("where") {
		if st.Where, err = p.expr(); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (p *parser) deleteStmt() (Statement, error) {
	if err := p.expect("from"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := DeleteStmt{Table: table}
	if p.accept("where") {
		if st.Where, err = p.expr(); err != nil {
			return nil, err
		}
	}
	return st, nil
}

var typeNames = map[string]bool{
	"int": true, "bigint": true, "integer": true,
	"float": true, "double": true, "real": true, "varchar": true, "text": true,
}

func (p *parser) createTable() (Statement, error) {
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	st := CreateTableStmt{Table: table}
	for {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		typ, err := p.ident()
		if err != nil {
			return nil, err
		}
		if !typeNames[typ] {
			return nil, p.errf("unknown type %q", typ)
		}
		// Optional (n) length suffix, ignored.
		if p.accept("(") {
			if _, err := p.intLiteral(); err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
		}
		st.Columns = append(st.Columns, struct{ Name, Type string }{name, typ})
		if !p.accept(",") {
			break
		}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *parser) createIndex(unique bool) (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect("on"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	st := CreateIndexStmt{Name: name, Table: table, Unique: unique, Threads: 1}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		st.Columns = append(st.Columns, col)
		if !p.accept(",") {
			break
		}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	if p.accept("with") {
		if err := p.expect("("); err != nil {
			return nil, err
		}
		if err := p.expect("threads"); err != nil {
			return nil, err
		}
		if err := p.expect("="); err != nil {
			return nil, err
		}
		n, err := p.intLiteral()
		if err != nil {
			return nil, err
		}
		st.Threads = int(n)
		if err := p.expect(")"); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// Expression grammar: or > and > comparison > additive > multiplicative >
// primary.
func (p *parser) expr() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.accept("or") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = BinaryExpr{Op: "or", L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.cmpExpr()
	if err != nil {
		return nil, err
	}
	for p.accept("and") {
		r, err := p.cmpExpr()
		if err != nil {
			return nil, err
		}
		l = BinaryExpr{Op: "and", L: l, R: r}
	}
	return l, nil
}

var cmpOps = map[string]bool{"=": true, "<>": true, "!=": true, "<": true, "<=": true, ">": true, ">=": true}

func (p *parser) cmpExpr() (Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	if p.cur().kind == tkSymbol && cmpOps[p.cur().text] {
		op := p.cur().text
		if op == "!=" {
			op = "<>"
		}
		p.pos++
		r, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return BinaryExpr{Op: op, L: l, R: r}, nil
	}
	return l, nil
}

func (p *parser) addExpr() (Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for p.at(tkSymbol, "+") || p.at(tkSymbol, "-") {
		op := p.cur().text
		p.pos++
		r, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		l = BinaryExpr{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) mulExpr() (Expr, error) {
	l, err := p.primary()
	if err != nil {
		return nil, err
	}
	for p.at(tkSymbol, "*") || p.at(tkSymbol, "/") {
		op := p.cur().text
		p.pos++
		r, err := p.primary()
		if err != nil {
			return nil, err
		}
		l = BinaryExpr{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) primary() (Expr, error) {
	switch {
	case p.accept("("):
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return e, nil
	case p.cur().kind == tkNumber || p.cur().kind == tkString || p.at(tkSymbol, "-"):
		return p.literal()
	case p.cur().kind == tkIdent:
		return p.columnRef()
	default:
		return nil, p.errf("unexpected token %q in expression", p.cur().text)
	}
}

func (p *parser) columnRef() (ColumnRef, error) {
	name, err := p.ident()
	if err != nil {
		return ColumnRef{}, err
	}
	if p.accept(".") {
		col, err := p.ident()
		if err != nil {
			return ColumnRef{}, err
		}
		return ColumnRef{Table: name, Name: col}, nil
	}
	return ColumnRef{Name: name}, nil
}

func (p *parser) literal() (Literal, error) {
	neg := p.accept("-")
	t := p.cur()
	var lit Literal
	switch t.kind {
	case tkString:
		if neg {
			return Literal{}, p.errf("cannot negate a string")
		}
		lit = Literal{IsString: true, Str: t.text}
	case tkNumber:
		var err error
		if lit, err = numberLiteral(t.text); err != nil {
			return Literal{}, p.errf("bad number %q", t.text)
		}
	default:
		return Literal{}, p.errf("expected literal, found %q", t.text)
	}
	p.pos++
	lit.Param = t.param
	if neg {
		lit = lit.negated()
	}
	return lit, nil
}

func (p *parser) intLiteral() (int64, error) {
	lit, err := p.literal()
	if err != nil {
		return 0, err
	}
	if !lit.IsInt {
		return 0, p.errf("expected integer literal")
	}
	return lit.Int, nil
}
