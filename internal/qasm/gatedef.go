package qasm

import "repro/internal/circuit"

// User-defined gates: OpenQASM 2.0 `gate` declarations are recorded as token
// streams and macro-expanded at application time, with formal parameters
// bound to evaluated expressions and formal qubit arguments bound to global
// qubit indices. Definitions may reference earlier definitions (recursive
// expansion); a gate whose expansion reaches itself is rejected. `opaque`
// declarations are rejected at application time since they have no body to
// simulate.
type gateDef struct {
	name   string
	params []string // formal parameter names
	args   []string // formal qubit argument names
	body   []token  // body statements, each ending in ';'
	line   int
	opaque bool

	expanding bool // an expansion of this gate is in progress

	// Name → position maps for long formal lists, built on first use.
	paramIndex, argIndex map[string]int
}

// frame is one active expansion: the definition whose body the parser is
// replaying, the replay position and the values bound to the formal names.
type frame struct {
	def    *gateDef
	pos    int
	params []float64
	args   []int
	line   int // application line, reported at the end of the body
}

func (f *frame) peek() token {
	if f.pos < len(f.def.body) {
		return f.def.body[f.pos]
	}
	return token{kind: tokEOF, line: f.line}
}

// param and arg look a formal name up.
func (f *frame) param(name string) (float64, bool) {
	if i, ok := formal(f.def.params, &f.def.paramIndex, name); ok {
		return f.params[i], true
	}
	return 0, false
}

func (f *frame) arg(name string) (int, bool) {
	if i, ok := formal(f.def.args, &f.def.argIndex, name); ok {
		return f.args[i], true
	}
	return 0, false
}

// formal returns the position of name in a formal list; a name listed
// twice binds to its last position. Real definitions have a few formals
// and a scan is cheapest; a list longer than 8 gets an index map on its
// first lookup, so a body referencing many formals stays linear.
func formal(names []string, index *map[string]int, name string) (int, bool) {
	if len(names) <= 8 {
		for i := len(names) - 1; i >= 0; i-- {
			if names[i] == name {
				return i, true
			}
		}
		return 0, false
	}
	if *index == nil {
		*index = make(map[string]int, len(names))
		for i, n := range names {
			(*index)[n] = i
		}
	}
	i, ok := (*index)[name]
	return i, ok
}

// parseGateDef parses `gate name(p, …) q, … { … }` after the `gate` keyword.
func (p *parser) parseGateDef(opaque bool) error {
	nameTok := p.next()
	if nameTok.kind != tokIdent {
		return p.errf(nameTok, "expected gate name")
	}
	def := &gateDef{name: nameTok.text, line: nameTok.line, opaque: opaque}
	if isSymbol(p.peek(), "(") {
		p.next()
		for !isSymbol(p.peek(), ")") {
			t := p.next()
			if t.kind != tokIdent {
				return p.errf(t, "expected parameter name, got %q", t.text)
			}
			def.params = append(def.params, t.text)
			if isSymbol(p.peek(), ",") {
				p.next()
			}
		}
		p.next() // ')'
	}
	for {
		t := p.next()
		if t.kind != tokIdent {
			return p.errf(t, "expected qubit argument name, got %q", t.text)
		}
		def.args = append(def.args, t.text)
		if !isSymbol(p.peek(), ",") {
			break
		}
		p.next()
	}
	if opaque {
		if err := p.expectSymbol(";"); err != nil {
			return err
		}
		p.gateDefs[def.name] = def
		return nil
	}
	if err := p.expectSymbol("{"); err != nil {
		return err
	}
	// Capture the body verbatim.
	for {
		t := p.next()
		switch {
		case t.kind == tokEOF:
			return p.errf(t, "unterminated gate body for %q", def.name)
		case isSymbol(t, "}"):
			if n := len(def.body); n > 0 && !isSymbol(def.body[n-1], ";") {
				return p.errf(t, "gate body statement missing ';'")
			}
			p.gateDefs[def.name] = def
			return nil
		default:
			def.body = append(def.body, t)
		}
	}
}

// expandDef macro-expands one application of a user-defined gate with the
// given actual parameters and global qubit arguments, attaching cond to
// every op it lowers to.
func (p *parser) expandDef(def *gateDef, params []float64, args []int, line int, cond *circuit.Cond) error {
	if def.opaque {
		return errAt(line, "opaque gate %q has no body to simulate", def.name)
	}
	if len(params) != len(def.params) {
		return errAt(line, "gate %s expects %d parameter(s), got %d",
			def.name, len(def.params), len(params))
	}
	if len(args) != len(def.args) {
		return errAt(line, "gate %s expects %d argument(s), got %d",
			def.name, len(def.args), len(args))
	}
	if def.expanding {
		return errAt(line, "gate %s is defined in terms of itself", def.name)
	}
	if err := p.spend(line, len(def.body)); err != nil {
		return err
	}
	def.expanding = true
	p.frames = append(p.frames, frame{def: def, params: params, args: args, line: line})
	p.frame = &p.frames[len(p.frames)-1]
	defer func() {
		def.expanding = false
		p.frames = p.frames[:len(p.frames)-1]
		p.frame = nil
		if n := len(p.frames); n > 0 {
			p.frame = &p.frames[n-1] // the append above may have moved the stack
		}
	}()
	for p.peek().kind != tokEOF {
		head := p.next()
		if head.kind != tokIdent {
			return p.errf(head, "bad statement in gate %q body", def.name)
		}
		if head.text == "barrier" { // barriers inside gate bodies are no-ops here
			for t := p.next(); t.kind != tokEOF && !isSymbol(t, ";"); t = p.next() {
			}
			continue
		}
		if err := p.parseGate(head, cond); err != nil {
			return err
		}
	}
	return nil
}
