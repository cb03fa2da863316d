package sql

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParse throws arbitrary byte strings at the parser. The only
// requirement is that Parse never panics or hangs: malformed input must
// come back as (nil, error). The seed corpus covers every statement kind
// the grammar accepts, plus a few malformed shapes near grammar edges.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"SELECT * FROM products WHERE id = 42",
		"SELECT id, price FROM products WHERE category = 3 AND price > 50",
		"SELECT category, count(*), avg(price) FROM products GROUP BY category ORDER BY category DESC LIMIT 5",
		"SELECT count(*) FROM products JOIN categories ON products.category = categories.cat_id",
		"SELECT products.id, categories.label FROM products JOIN categories ON products.category = categories.cat_id WHERE products.price > 12 AND categories.label < 104",
		"SELECT count(*) FROM products JOIN categories ON products.category = categories.cat_id WHERE categories.label = products.id + 100",
		"SELECT products.id, categories.label FROM categories JOIN products ON categories.cat_id = products.category WHERE products.category = 3",
		"SELECT categories.label, count(*), sum(products.price) FROM products JOIN categories ON products.category = categories.cat_id GROUP BY categories.label ORDER BY categories.label",
		"SELECT products.id FROM products JOIN categories ON products.category = categories.cat_id WHERE products.price >= 20 ORDER BY categories.label DESC, products.id LIMIT 5",
		"SELECT id * 2 + 1 FROM products WHERE name <> 'widget'",
		"SELECT sum(price), min(price), max(price) FROM products WHERE price >= -1.5",
		"INSERT INTO categories VALUES (0, 100), (1, 101), (2, 102)",
		"UPDATE products SET price = price * 1.1 WHERE category = 3",
		"DELETE FROM products WHERE price > 1000",
		"CREATE TABLE products (id INT, category INT, price FLOAT, name VARCHAR(20))",
		"CREATE UNIQUE INDEX products_pk ON products (id) WITH (threads = 2)",
		"DROP INDEX products_pk",
		"SELECT 'oops",
		"SELECT * FROM t WHERE",
		"INSERT INTO t (1)",
		"SELECT @x",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		st, err := Parse(input)
		if err == nil && st == nil {
			t.Errorf("Parse(%q) returned no statement and no error", input)
		}
		if err != nil && st != nil {
			t.Errorf("Parse(%q) returned both a statement and error %v", input, err)
		}
	})
}

// FuzzTemplate throws arbitrary byte strings at the template scan and, for
// the ones that plan on a fixed schema, at Bind. For any input: Normalize
// never panics, it splits the text exactly where lex does, and it refuses a
// key only where Parse fails too (or past MaxTemplateLiterals). Whenever
// the text parses and plans, the template's tree is the plain plan, and
// bound to the literals of a second text — the input with every parameter
// literal replaced — it equals a fresh plan of that second text. The seed
// corpus is testdata/fuzz/FuzzTemplate.
func FuzzTemplate(f *testing.F) {
	pl := NewPlanner(templateCtx(f, true).DB)
	f.Fuzz(func(t *testing.T, input string) {
		key, lits, ok := Normalize(input, nil, nil)
		toks, lexErr := lex(input)
		if lexErr != nil {
			if ok {
				t.Fatalf("Normalize keyed %q, which does not lex: %v", input, lexErr)
			}
			return
		}
		sameTokens(t, input, string(key), toks, ok)
		st, err := Parse(input)
		if !ok {
			if err == nil && len(lits) < MaxTemplateLiterals {
				t.Fatalf("Normalize refused %q, which parses", input)
			}
			return
		}
		if err != nil {
			return
		}
		fresh, err := pl.Plan(st)
		if err != nil {
			return
		}
		tmpl, err := pl.PlanTemplate(st, len(lits))
		if err != nil {
			t.Fatalf("%q: Plan succeeds, PlanTemplate fails: %v", input, err)
		}
		if !reflect.DeepEqual(tmpl.Root(), fresh) {
			t.Fatalf("%q: recording sites changed the plan", input)
		}
		if !tmpl.Bindable() {
			return
		}
		if !reflect.DeepEqual(tmpl.Bind(lits), fresh) {
			t.Fatalf("%q: bound to its own literals differs from a fresh plan", input)
		}
		other := otherLiterals(input)
		key2, lits2, ok := Normalize(other, nil, nil)
		if !ok || string(key2) != string(key) {
			t.Fatalf("%q -> %q changed the key: %q -> %q", input, other, key, key2)
		}
		st2, err := Parse(other)
		if err != nil {
			t.Fatalf("%q parses, %q does not: %v", input, other, err)
		}
		fresh2, err := pl.Plan(st2)
		if err != nil {
			t.Fatalf("%q plans, %q does not: %v", input, other, err)
		}
		if !reflect.DeepEqual(tmpl.Bind(lits2), fresh2) {
			t.Fatalf("%q bound to the literals of %q differs from a fresh plan", input, other)
		}
	})
}

// sameTokens checks a template key against lex's tokens: one field per
// token, each the rendering of the token starting where lex says it
// starts. A refused key is checked as far as it goes.
func sameTokens(t *testing.T, input, key string, toks []token, complete bool) {
	var fields []string
	if key != "" {
		fields = strings.Split(key, " ")
	}
	toks = toks[:len(toks)-1] // EOF
	if complete && len(fields) != len(toks) || len(fields) > len(toks) {
		t.Fatalf("%q: %d key fields for %d tokens (key %q)", input, len(fields), len(toks), key)
	}
	for i, field := range fields {
		tok := toks[i]
		var want string
		switch {
		case tok.kind == tkIdent:
			// The key lowercases ASCII only; lex lowercases the same bytes
			// with strings.ToLower.
			raw := []byte(input[tok.pos:min(tok.pos+len(field), len(input))])
			for j, c := range raw {
				if 'A' <= c && c <= 'Z' {
					raw[j] = c | 0x20
				}
			}
			if want = string(raw); strings.ToLower(want) != tok.text {
				t.Fatalf("%q: token %d is %q at %d, key field is %q", input, i, tok.text, tok.pos, field)
			}
		case tok.param == 0:
			want = tok.text
		case tok.kind == tkString:
			want = "?s"
		case strings.Contains(tok.text, "."):
			want = "?f"
		default:
			want = "?i"
		}
		if field != want {
			t.Fatalf("%q: field %d is %q, want %q", input, i, field, want)
		}
	}
}

// otherLiterals rewrites every parameter literal of a text that lexes:
// strings become 'zz', numbers 7 or 7.5 by kind, set off by spaces so a
// number cannot fuse with a neighbouring token.
func otherLiterals(input string) string {
	var sb strings.Builder
	s := scanner{input: input}
	last := 0
	for {
		tok, _ := s.next()
		if tok.kind == tkEOF {
			return sb.String() + input[last:]
		}
		if tok.param == 0 {
			continue
		}
		sb.WriteString(input[last:tok.start])
		last = tok.end
		switch {
		case tok.kind == tkString:
			sb.WriteString(" 'zz' ")
		case strings.Contains(input[tok.start:tok.end], "."):
			sb.WriteString(" 7.5 ")
		default:
			sb.WriteString(" 7 ")
		}
	}
}
