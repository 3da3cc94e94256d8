// Package qasm implements a reader and writer for the OpenQASM 2.0 subset
// needed to exchange the benchmark circuits: qreg/creg declarations, the
// qelib1 standard gates, parameter expressions with pi, barrier statements
// (ignored), and the dynamic-circuit statements — measure, reset and
// `if (creg == value)` classical control — which become positioned ops in
// the circuit IR.
package qasm

import "unicode"

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol // single-character punctuation: ; , ( ) [ ] { } + - * / ^
	tokArrow  // ->
	tokEquals // ==
)

// token is one lexeme. Its text is a substring of the source, so scanning
// allocates nothing.
type token struct {
	kind tokenKind
	text string
	line int
}

// Byte classes of the lexer, one table entry per byte value.
const (
	clsIdentStart  = 1 << iota // letter or '_'
	clsIdentChar               // letter, digit or '_'
	clsNumberStart             // digit or '.'
	clsNumberChar              // digit, '.', 'e' or 'E'
	clsSymbol                  // ; , ( ) [ ] { } + - * / ^
)

// byteClass classifies every byte value. Bytes ≥ 0x80 are classified as the
// Latin-1 code point of the same value by the unicode package, as a
// byte-at-a-time scanner calling unicode.IsLetter(rune(c)) would.
var byteClass = func() (t [256]uint8) {
	for i := range t {
		c := rune(i)
		letter, digit := unicode.IsLetter(c), unicode.IsDigit(c)
		if letter || c == '_' {
			t[i] |= clsIdentStart
		}
		if letter || digit || c == '_' {
			t[i] |= clsIdentChar
		}
		if digit || c == '.' {
			t[i] |= clsNumberStart
		}
		if digit || c == '.' || c == 'e' || c == 'E' {
			t[i] |= clsNumberChar
		}
	}
	for _, c := range []byte(";,()[]{}+-*/^") {
		t[c] |= clsSymbol
	}
	return t
}()

// lexer produces tokens on demand; the parser pulls one token of lookahead.
type lexer struct {
	src  string
	pos  int
	line int
}

func (l *lexer) errf(format string, args ...any) error {
	return errAt(l.line, format, args...)
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			goto scan
		}
	}
	return token{kind: tokEOF, line: l.line}, nil

scan:
	c := l.src[l.pos]
	start := l.pos
	cls := byteClass[c]
	switch {
	case cls&clsIdentStart != 0:
		for l.pos < len(l.src) && byteClass[l.src[l.pos]]&clsIdentChar != 0 {
			l.pos++
		}
		return token{tokIdent, l.src[start:l.pos], l.line}, nil
	case cls&clsNumberStart != 0:
		for l.pos < len(l.src) && byteClass[l.src[l.pos]]&clsNumberChar != 0 {
			prev := l.src[l.pos]
			l.pos++
			// Allow a sign directly after an exponent marker (1.5e-3).
			if (prev == 'e' || prev == 'E') && l.pos < len(l.src) &&
				(l.src[l.pos] == '+' || l.src[l.pos] == '-') {
				l.pos++
			}
		}
		return token{tokNumber, l.src[start:l.pos], l.line}, nil
	case c == '"':
		l.pos++
		for l.pos < len(l.src) && l.src[l.pos] != '"' {
			if l.src[l.pos] == '\n' {
				return token{}, l.errf("unterminated string")
			}
			l.pos++
		}
		if l.pos >= len(l.src) {
			return token{}, l.errf("unterminated string")
		}
		l.pos++
		return token{tokString, l.src[start+1 : l.pos-1], l.line}, nil
	case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '>':
		l.pos += 2
		return token{tokArrow, l.src[start:l.pos], l.line}, nil
	case c == '=' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '=':
		l.pos += 2
		return token{tokEquals, l.src[start:l.pos], l.line}, nil
	case cls&clsSymbol != 0:
		l.pos++
		return token{tokSymbol, l.src[start:l.pos], l.line}, nil
	}
	return token{}, l.errf("unexpected character %q", c)
}
