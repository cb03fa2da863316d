// Package sql implements a small SQL front end over the engine: a lexer,
// a recursive-descent parser, and a binder/planner that resolves names
// against the catalog, derives cardinality estimates from table statistics,
// and emits physical plans for the executor. The paper's OU-runners drive
// NoisePage through high-level SQL statements precisely because the SQL
// surface is stable across internal API changes (Sec 6.2); this package
// plays that role here.
package sql

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexer output.
type tokenKind int

const (
	tkEOF tokenKind = iota
	tkIdent
	tkNumber
	tkString
	tkSymbol // punctuation and operators
)

type token struct {
	kind  tokenKind
	text  string // keywords and identifiers are lowercased
	pos   int
	param int // 1-based ordinal among the parameter literals, 0 for any other token
}

// scanner walks a statement text one token at a time without allocating.
// lex and Normalize are both loops over it, so the parser and the
// template key cannot disagree on where a token ends or on which literals
// are parameters.
type scanner struct {
	input      string
	pos        int
	params     int  // parameter literals seen so far
	afterLimit bool // the previous token was the keyword LIMIT
}

// rawToken is input[start:end], quotes included for a string.
type rawToken struct {
	kind       tokenKind
	start, end int
	param      int
}

// next returns the next token; after the last one it returns tkEOF forever.
// Every number or string is a parameter except the count directly after
// LIMIT, which the planner reads to shape the plan.
func (s *scanner) next() (rawToken, error) {
	input, i := s.input, s.pos
	for i < len(input) && unicode.IsSpace(rune(input[i])) {
		i++
	}
	t := rawToken{kind: tkEOF, start: i, end: i}
	if i == len(input) {
		s.pos = i
		return t, nil
	}
	c := rune(input[i])
	j := i + 1
	switch {
	case c == '\'':
		for j < len(input) && input[j] != '\'' {
			j++
		}
		if j >= len(input) {
			return t, fmt.Errorf("sql: unterminated string at %d", i)
		}
		j++
		t.kind = tkString
	case unicode.IsDigit(c) || (c == '.' && j < len(input) && unicode.IsDigit(rune(input[j]))):
		for j < len(input) && (unicode.IsDigit(rune(input[j])) || input[j] == '.') {
			j++
		}
		t.kind = tkNumber
	case unicode.IsLetter(c) || c == '_':
		for j < len(input) && (unicode.IsLetter(rune(input[j])) || unicode.IsDigit(rune(input[j])) || input[j] == '_') {
			j++
		}
		t.kind = tkIdent
	default:
		t.kind = tkSymbol
		// Two-character operators first.
		if two := input[i:min(i+2, len(input))]; two == "<=" || two == ">=" || two == "<>" || two == "!=" {
			j = i + 2
		} else if !strings.ContainsRune("(),*=<>+-/.;", c) {
			return t, fmt.Errorf("sql: unexpected character %q at %d", c, i)
		}
	}
	t.end = j
	if (t.kind == tkNumber && !s.afterLimit) || t.kind == tkString {
		s.params++
		t.param = s.params
	}
	s.afterLimit = t.kind == tkIdent && isKeyword(input[i:j], "limit")
	s.pos = j
	return t, nil
}

// isKeyword reports whether an identifier lexes to the keyword kw, that
// is whether strings.ToLower(raw) == kw, without allocating for ASCII.
func isKeyword(raw, kw string) bool {
	for i := 0; i < len(raw); i++ {
		if raw[i] >= 0x80 {
			return strings.ToLower(raw) == kw
		}
	}
	if len(raw) != len(kw) {
		return false
	}
	for i := 0; i < len(raw); i++ {
		if raw[i]|0x20 != kw[i] {
			return false
		}
	}
	return true
}

// lex splits the input into tokens.
func lex(input string) ([]token, error) {
	// One allocation for most statements: tokens average over three bytes
	// with their separators.
	out := make([]token, 0, len(input)/3+2)
	s := scanner{input: input}
	for {
		t, err := s.next()
		if err != nil {
			return nil, err
		}
		text := input[t.start:t.end]
		switch t.kind {
		case tkIdent:
			text = strings.ToLower(text)
		case tkString:
			text = text[1 : len(text)-1]
		}
		out = append(out, token{t.kind, text, t.start, t.param})
		if t.kind == tkEOF {
			return out, nil
		}
	}
}
