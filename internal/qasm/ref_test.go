package qasm

// This file keeps the previous two-pass OpenQASM front end as a test-only
// reference: the lexer tokenizes the whole program into a slice, the parser
// collects pendingOps and lowers them through circuit.Append once the final
// qubit count is known. FuzzParse and the differential tests compare the
// one-pass parser against it. Identifiers carry a ref prefix; the code is
// otherwise unchanged, including its panics on repeated gate operands,
// except for three guards that keep a fuzzer from crashing or exhausting the
// test process through it:
//   - a gate whose expansion reaches itself is rejected (it recursed until
//     the stack overflowed);
//   - register widths share the one-pass parser's maxRegisterBits cap (a
//     huge register was allocated as a []int at its first use, and a wide
//     enough total overflowed the qubit count);
//   - creating more than maxOps pending ops fails with errRefBudget, which
//     the differential tests treat as "no verdict".

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/circuit"
)

type refTokenKind int

const (
	refTokEOF refTokenKind = iota
	refTokIdent
	refTokNumber
	refTokString
	refTokSymbol // single-character punctuation: ; , ( ) [ ] { } + - * / ^
	refTokArrow  // ->
	refTokEquals // ==
)

type refToken struct {
	kind refTokenKind
	text string
	line int
}

type refLexer struct {
	src  string
	pos  int
	line int
}

func refNewLexer(src string) *refLexer { return &refLexer{src: src, line: 1} }

func (l *refLexer) errf(format string, args ...any) error {
	return errAt(l.line, format, args...)
}

func (l *refLexer) next() (refToken, error) {
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
	return refToken{kind: refTokEOF, line: l.line}, nil

scan:
	c := l.src[l.pos]
	start := l.pos
	switch {
	case unicode.IsLetter(rune(c)) || c == '_':
		for l.pos < len(l.src) && (refIsIdentChar(l.src[l.pos])) {
			l.pos++
		}
		return refToken{refTokIdent, l.src[start:l.pos], l.line}, nil
	case unicode.IsDigit(rune(c)) || c == '.':
		for l.pos < len(l.src) && refIsNumberChar(l.src[l.pos]) {
			prev := l.src[l.pos]
			l.pos++
			// Allow a sign directly after an exponent marker (1.5e-3).
			if (prev == 'e' || prev == 'E') && l.pos < len(l.src) &&
				(l.src[l.pos] == '+' || l.src[l.pos] == '-') {
				l.pos++
			}
		}
		return refToken{refTokNumber, l.src[start:l.pos], l.line}, nil
	case c == '"':
		l.pos++
		for l.pos < len(l.src) && l.src[l.pos] != '"' {
			if l.src[l.pos] == '\n' {
				return refToken{}, l.errf("unterminated string")
			}
			l.pos++
		}
		if l.pos >= len(l.src) {
			return refToken{}, l.errf("unterminated string")
		}
		l.pos++
		return refToken{refTokString, l.src[start+1 : l.pos-1], l.line}, nil
	case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '>':
		l.pos += 2
		return refToken{refTokArrow, "->", l.line}, nil
	case c == '=' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '=':
		l.pos += 2
		return refToken{refTokEquals, "==", l.line}, nil
	case strings.ContainsRune(";,()[]{}+-*/^", rune(c)):
		l.pos++
		return refToken{refTokSymbol, string(c), l.line}, nil
	}
	return refToken{}, l.errf("unexpected character %q", c)
}

func refIsIdentChar(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

func refIsNumberChar(c byte) bool {
	return c == '.' || c == 'e' || c == 'E' || unicode.IsDigit(rune(c))
}

// refTokenize scans the whole input.
func refTokenize(src string) ([]refToken, error) {
	l := refNewLexer(src)
	var out []refToken
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.kind == refTokEOF {
			return out, nil
		}
	}
}

// refParse reads an OpenQASM 2.0 program and returns the flattened circuit.
// Supported statements: OPENQASM version header, include (ignored),
// qreg/creg declarations, the qelib1 gate set (see refApplyGate), barrier
// (ignored), measure and reset (positioned non-unitary ops in the IR) and
// `if (creg == value) qop;` classical control.
func refParse(src, name string) (*circuit.Circuit, error) {
	toks, err := refTokenize(src)
	if err != nil {
		return nil, err
	}
	p := &refParser{toks: toks, name: name, qregs: map[string]refQreg{},
		cregs: map[string]refQreg{}, gateDefs: map[string]*refGateDef{}, budget: new(int)}
	return p.parse()
}

type refQreg struct {
	offset, size int
}

type refParser struct {
	toks []refToken
	pos  int
	name string

	qregs   map[string]refQreg
	nqubits int
	cregs   map[string]refQreg
	ncbits  int

	// User-defined gates and, during macro expansion, the active bindings.
	gateDefs  map[string]*refGateDef
	bindings  map[string]float64
	localArgs map[string]int

	budget *int // pending ops created so far, shared with sub-parsers
}

// errRefBudget reports that the reference gave up at maxOps pending ops.
var errRefBudget = errors.New("reference parser: op budget exhausted")

// spend counts n newly created pending ops against maxOps.
func (p *refParser) spend(n int) error {
	*p.budget += n
	if *p.budget > maxOps {
		return errRefBudget
	}
	return nil
}

func (p *refParser) peek() refToken { return p.toks[p.pos] }

func (p *refParser) next() refToken {
	t := p.toks[p.pos]
	if t.kind != refTokEOF {
		p.pos++
	}
	return t
}

func (p *refParser) errf(t refToken, format string, args ...any) error {
	return errAt(t.line, format, args...)
}

func (p *refParser) expectSymbol(s string) error {
	t := p.next()
	if t.kind != refTokSymbol || t.text != s {
		return p.errf(t, "expected %q, got %q", s, t.text)
	}
	return nil
}

func (p *refParser) parse() (*circuit.Circuit, error) {
	var pending []refPendingOp
	for {
		t := p.next()
		switch {
		case t.kind == refTokEOF:
			goto done
		case t.kind == refTokIdent && t.text == "OPENQASM":
			if v := p.next(); v.kind != refTokNumber {
				return nil, p.errf(v, "expected version number")
			}
			if err := p.expectSymbol(";"); err != nil {
				return nil, err
			}
		case t.kind == refTokIdent && t.text == "include":
			if s := p.next(); s.kind != refTokString {
				return nil, p.errf(s, "expected include path")
			}
			if err := p.expectSymbol(";"); err != nil {
				return nil, err
			}
		case t.kind == refTokIdent && (t.text == "qreg" || t.text == "creg"):
			nameTok := p.next()
			if nameTok.kind != refTokIdent {
				return nil, p.errf(nameTok, "expected register name")
			}
			if err := p.expectSymbol("["); err != nil {
				return nil, err
			}
			szTok := p.next()
			sz, err := strconv.Atoi(szTok.text)
			if err != nil || sz <= 0 {
				return nil, p.errf(szTok, "bad register size %q", szTok.text)
			}
			total := p.ncbits
			if t.text == "qreg" {
				total = p.nqubits
			}
			if sz > maxRegisterBits-total {
				return nil, p.errf(szTok, "register too wide")
			}
			if err := p.expectSymbol("]"); err != nil {
				return nil, err
			}
			if err := p.expectSymbol(";"); err != nil {
				return nil, err
			}
			if t.text == "qreg" {
				p.qregs[nameTok.text] = refQreg{offset: p.nqubits, size: sz}
				p.nqubits += sz
			} else {
				p.cregs[nameTok.text] = refQreg{offset: p.ncbits, size: sz}
				p.ncbits += sz
			}
		case t.kind == refTokIdent && t.text == "gate":
			if err := p.parseGateDef(false); err != nil {
				return nil, err
			}
		case t.kind == refTokIdent && t.text == "opaque":
			if err := p.parseGateDef(true); err != nil {
				return nil, err
			}
		case t.kind == refTokIdent && t.text == "barrier":
			for p.peek().kind != refTokEOF {
				if tt := p.next(); tt.kind == refTokSymbol && tt.text == ";" {
					break
				}
			}
		case t.kind == refTokIdent && t.text == "if":
			ops, err := p.parseIf(t)
			if err != nil {
				return nil, err
			}
			pending = append(pending, ops...)
		case t.kind == refTokIdent:
			ops, err := p.parseQop(t, nil)
			if err != nil {
				return nil, err
			}
			pending = append(pending, ops...)
		default:
			return nil, p.errf(t, "unexpected refToken %q", t.text)
		}
	}
done:
	if p.nqubits == 0 {
		return nil, fmt.Errorf("qasm: no refQreg declared")
	}
	c := circuit.New(p.name, p.nqubits)
	c.Cbits = p.ncbits
	for _, op := range pending {
		if err := op.lower(c); err != nil {
			return nil, err
		}
	}
	return c, nil
}

type refPendingGate struct {
	name   string
	params []float64
	args   []int
	line   int
}

// refOpKind discriminates the three positioned statement forms.
type refOpKind int

const (
	refOpGate refOpKind = iota
	refOpMeasure
	refOpReset
)

// refPendingOp is one positioned circuit op awaiting lowering (gate lowering
// needs the final qubit count, so statements are collected first).
type refPendingOp struct {
	kind  refOpKind
	gate  refPendingGate // refOpGate
	qubit int            // refOpMeasure/refOpReset
	clbit int            // refOpMeasure
	cond  *circuit.Cond
	line  int
}

// lower appends the op to the circuit. A classical condition is attached to
// every gate the op lowers to (multi-gate lowerings like swap fire
// all-or-nothing, so guarding each emitted gate is exact).
func (op refPendingOp) lower(c *circuit.Circuit) error {
	start := c.Len()
	switch op.kind {
	case refOpMeasure:
		c.Append(circuit.Gate{Name: circuit.OpMeasure, Target: op.qubit, Clbit: op.clbit})
	case refOpReset:
		c.Append(circuit.Gate{Name: circuit.OpReset, Target: op.qubit})
	default:
		if err := refApplyGate(c, op.gate); err != nil {
			return err
		}
	}
	if op.cond != nil {
		for i := start; i < c.Len(); i++ {
			c.Gates[i].Cond = op.cond
		}
	}
	return nil
}

// parseQop parses one quantum operation statement (gate application,
// measure, or reset) starting at its head token, attaching cond to every
// resulting op.
func (p *refParser) parseQop(head refToken, cond *circuit.Cond) ([]refPendingOp, error) {
	switch head.text {
	case "measure":
		return p.parseMeasure(head, cond)
	case "reset":
		qs, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(";"); err != nil {
			return nil, err
		}
		if err := p.spend(len(qs)); err != nil {
			return nil, err
		}
		ops := make([]refPendingOp, len(qs))
		for i, q := range qs {
			ops[i] = refPendingOp{kind: refOpReset, qubit: q, cond: cond, line: head.line}
		}
		return ops, nil
	default:
		gs, err := p.parseGate(head)
		if err != nil {
			return nil, err
		}
		ops := make([]refPendingOp, len(gs))
		for i, g := range gs {
			ops[i] = refPendingOp{kind: refOpGate, gate: g, cond: cond, line: g.line}
		}
		return ops, nil
	}
}

// parseMeasure parses `measure q[i] -> c[j];` (or the whole-register form,
// which broadcasts element-wise and requires equal sizes).
func (p *refParser) parseMeasure(head refToken, cond *circuit.Cond) ([]refPendingOp, error) {
	qs, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	if a := p.next(); a.kind != refTokArrow {
		return nil, p.errf(a, "expected -> in measure")
	}
	cs, err := p.parseClOperand()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol(";"); err != nil {
		return nil, err
	}
	if len(qs) != len(cs) {
		return nil, errAt(head.line, "measure register sizes differ (%d qubits -> %d classical bits)",
			len(qs), len(cs))
	}
	if err := p.spend(len(qs)); err != nil {
		return nil, err
	}
	ops := make([]refPendingOp, len(qs))
	for i := range qs {
		ops[i] = refPendingOp{kind: refOpMeasure, qubit: qs[i], clbit: cs[i], cond: cond, line: head.line}
	}
	return ops, nil
}

// parseIf parses `if (creg == value) qop;` — OpenQASM 2.0 conditions compare
// one whole classical register against a non-negative integer.
func (p *refParser) parseIf(head refToken) ([]refPendingOp, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	regTok := p.next()
	if regTok.kind != refTokIdent {
		return nil, p.errf(regTok, "expected classical register in if, got %q", regTok.text)
	}
	r, ok := p.cregs[regTok.text]
	if !ok {
		return nil, p.errf(regTok, "unknown classical register %q", regTok.text)
	}
	if r.size > 64 {
		return nil, p.errf(regTok, "register %s[%d] too wide for a classical condition (max 64)",
			regTok.text, r.size)
	}
	if eq := p.next(); eq.kind != refTokEquals {
		return nil, p.errf(eq, "expected == in if, got %q", eq.text)
	}
	valTok := p.next()
	val, err := strconv.ParseUint(valTok.text, 10, 64)
	if err != nil {
		return nil, p.errf(valTok, "bad comparison value %q in if", valTok.text)
	}
	if r.size < 64 && val >= 1<<uint(r.size) {
		return nil, p.errf(valTok, "comparison value %d does not fit register %s[%d]",
			val, regTok.text, r.size)
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	body := p.next()
	if body.kind != refTokIdent {
		return nil, p.errf(body, "expected quantum op after if, got %q", body.text)
	}
	if body.text == "if" {
		return nil, p.errf(body, "nested if is not allowed")
	}
	cond := &circuit.Cond{Offset: r.offset, Width: r.size, Value: val}
	return p.parseQop(body, cond)
}

// parseClOperand parses a classical operand "c" (whole register) or "c[3]"
// and returns the global classical bit indices.
func (p *refParser) parseClOperand() ([]int, error) {
	t := p.next()
	if t.kind != refTokIdent {
		return nil, p.errf(t, "expected classical register operand, got %q", t.text)
	}
	r, ok := p.cregs[t.text]
	if !ok {
		return nil, p.errf(t, "unknown classical register %q", t.text)
	}
	if p.peek().kind == refTokSymbol && p.peek().text == "[" {
		p.next()
		it := p.next()
		idx, err := strconv.Atoi(it.text)
		if err != nil || idx < 0 || idx >= r.size {
			return nil, p.errf(it, "bad index %q into register %s[%d]", it.text, t.text, r.size)
		}
		if err := p.expectSymbol("]"); err != nil {
			return nil, err
		}
		return []int{r.offset + idx}, nil
	}
	out := make([]int, r.size)
	for i := range out {
		out[i] = r.offset + i
	}
	return out, nil
}

// parseOperand parses "q" (whole register) or "q[3]" and returns the global
// qubit indices. Inside a gate-definition body, bare formal argument names
// resolve through localArgs.
func (p *refParser) parseOperand() ([]int, error) {
	t := p.next()
	if t.kind != refTokIdent {
		return nil, p.errf(t, "expected register operand, got %q", t.text)
	}
	if idx, ok := p.localArgs[t.text]; ok {
		return []int{idx}, nil
	}
	r, ok := p.qregs[t.text]
	if !ok {
		return nil, p.errf(t, "unknown quantum register %q", t.text)
	}
	if p.peek().kind == refTokSymbol && p.peek().text == "[" {
		p.next()
		it := p.next()
		idx, err := strconv.Atoi(it.text)
		if err != nil || idx < 0 || idx >= r.size {
			return nil, p.errf(it, "bad index %q into register %s[%d]", it.text, t.text, r.size)
		}
		if err := p.expectSymbol("]"); err != nil {
			return nil, err
		}
		return []int{r.offset + idx}, nil
	}
	out := make([]int, r.size)
	for i := range out {
		out[i] = r.offset + i
	}
	return out, nil
}

// parseGate parses one gate application statement starting at the name token.
func (p *refParser) parseGate(nameTok refToken) ([]refPendingGate, error) {
	var params []float64
	if p.peek().kind == refTokSymbol && p.peek().text == "(" {
		p.next()
		for {
			v, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			params = append(params, v)
			t := p.next()
			if t.kind == refTokSymbol && t.text == ")" {
				break
			}
			if !(t.kind == refTokSymbol && t.text == ",") {
				return nil, p.errf(t, "expected , or ) in parameter list")
			}
		}
	}
	var operands [][]int
	for {
		qs, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		operands = append(operands, qs)
		t := p.next()
		if t.kind == refTokSymbol && t.text == ";" {
			break
		}
		if !(t.kind == refTokSymbol && t.text == ",") {
			return nil, p.errf(t, "expected , or ; after operand")
		}
	}
	// Broadcast whole-register operands: all operand lists must have equal
	// length (or length 1).
	width := 1
	for _, o := range operands {
		if len(o) > width {
			width = len(o)
		}
	}
	def := p.gateDefs[nameTok.text]
	var out []refPendingGate
	for i := 0; i < width; i++ {
		args := make([]int, len(operands))
		for j, o := range operands {
			switch {
			case len(o) == 1:
				args[j] = o[0]
			case len(o) == width:
				args[j] = o[i]
			default:
				return nil, p.errf(nameTok, "mismatched register sizes in %s", nameTok.text)
			}
		}
		if def != nil {
			expanded, err := p.expandDef(def, params, args, nameTok.line)
			if err != nil {
				return nil, err
			}
			out = append(out, expanded...)
			continue
		}
		if err := p.spend(1); err != nil {
			return nil, err
		}
		out = append(out, refPendingGate{name: nameTok.text, params: params, args: args, line: nameTok.line})
	}
	return out, nil
}

// parseExpr evaluates a constant parameter expression with + - * / ^, unary
// minus, parentheses and the constant pi.
func (p *refParser) parseExpr() (float64, error) { return p.parseAddSub() }

func (p *refParser) parseAddSub() (float64, error) {
	v, err := p.parseMulDiv()
	if err != nil {
		return 0, err
	}
	for {
		t := p.peek()
		if t.kind == refTokSymbol && (t.text == "+" || t.text == "-") {
			p.next()
			r, err := p.parseMulDiv()
			if err != nil {
				return 0, err
			}
			if t.text == "+" {
				v += r
			} else {
				v -= r
			}
			continue
		}
		return v, nil
	}
}

func (p *refParser) parseMulDiv() (float64, error) {
	v, err := p.parseUnary()
	if err != nil {
		return 0, err
	}
	for {
		t := p.peek()
		if t.kind == refTokSymbol && (t.text == "*" || t.text == "/" || t.text == "^") {
			p.next()
			r, err := p.parseUnary()
			if err != nil {
				return 0, err
			}
			switch t.text {
			case "*":
				v *= r
			case "/":
				v /= r
			case "^":
				v = math.Pow(v, r)
			}
			continue
		}
		return v, nil
	}
}

func (p *refParser) parseUnary() (float64, error) {
	t := p.next()
	switch {
	case t.kind == refTokSymbol && t.text == "-":
		v, err := p.parseUnary()
		return -v, err
	case t.kind == refTokSymbol && t.text == "+":
		return p.parseUnary()
	case t.kind == refTokSymbol && t.text == "(":
		v, err := p.parseExpr()
		if err != nil {
			return 0, err
		}
		return v, p.expectSymbol(")")
	case t.kind == refTokNumber:
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return 0, p.errf(t, "bad number %q", t.text)
		}
		return v, nil
	case t.kind == refTokIdent && t.text == "pi":
		return math.Pi, nil
	case t.kind == refTokIdent:
		if v, ok := p.bindings[t.text]; ok {
			return v, nil
		}
	}
	return 0, p.errf(t, "unexpected refToken %q in expression", t.text)
}

// refApplyGate lowers a qelib1-style gate application onto the circuit IR.
func refApplyGate(c *circuit.Circuit, g refPendingGate) error {
	need := func(nArgs, nParams int) error {
		if len(g.args) != nArgs {
			return errAt(g.line, "%s expects %d operand(s), got %d", g.name, nArgs, len(g.args))
		}
		if len(g.params) != nParams {
			return errAt(g.line, "%s expects %d parameter(s), got %d", g.name, nParams, len(g.params))
		}
		return nil
	}
	ctl := func(qs ...int) []circuit.Control {
		cs := make([]circuit.Control, len(qs))
		for i, q := range qs {
			cs[i] = circuit.Control{Qubit: q}
		}
		return cs
	}
	switch g.name {
	case "x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx", "sxdg", "id", "i":
		if err := need(1, 0); err != nil {
			return err
		}
		c.Append(circuit.Gate{Name: g.name, Target: g.args[0]})
	case "rz", "rx", "ry", "p", "u1", "phase":
		if err := need(1, 1); err != nil {
			return err
		}
		name := g.name
		if name == "u1" || name == "phase" {
			name = "p"
		}
		c.Append(circuit.Gate{Name: name, Target: g.args[0], Params: g.params})
	case "u", "u3":
		if err := need(1, 3); err != nil {
			return err
		}
		c.Append(circuit.Gate{Name: "u", Target: g.args[0], Params: g.params})
	case "u2":
		if err := need(1, 2); err != nil {
			return err
		}
		c.Append(circuit.Gate{Name: "u", Target: g.args[0],
			Params: []float64{math.Pi / 2, g.params[0], g.params[1]}})
	case "cx", "CX":
		if err := need(2, 0); err != nil {
			return err
		}
		c.Append(circuit.Gate{Name: "x", Target: g.args[1], Controls: ctl(g.args[0])})
	case "cz":
		if err := need(2, 0); err != nil {
			return err
		}
		c.Append(circuit.Gate{Name: "z", Target: g.args[1], Controls: ctl(g.args[0])})
	case "cy":
		if err := need(2, 0); err != nil {
			return err
		}
		c.Append(circuit.Gate{Name: "y", Target: g.args[1], Controls: ctl(g.args[0])})
	case "ch":
		if err := need(2, 0); err != nil {
			return err
		}
		c.Append(circuit.Gate{Name: "h", Target: g.args[1], Controls: ctl(g.args[0])})
	case "crz", "cp", "cu1":
		if err := need(2, 1); err != nil {
			return err
		}
		name := "p"
		if g.name == "crz" {
			name = "rz"
		}
		c.Append(circuit.Gate{Name: name, Target: g.args[1], Controls: ctl(g.args[0]), Params: g.params})
	case "ccx":
		if err := need(3, 0); err != nil {
			return err
		}
		c.Append(circuit.Gate{Name: "x", Target: g.args[2], Controls: ctl(g.args[0], g.args[1])})
	case "swap":
		if err := need(2, 0); err != nil {
			return err
		}
		c.CX(g.args[0], g.args[1]).CX(g.args[1], g.args[0]).CX(g.args[0], g.args[1])
	case "cswap":
		if err := need(3, 0); err != nil {
			return err
		}
		// Fredkin via three Toffolis.
		a, b, ctlq := g.args[1], g.args[2], g.args[0]
		c.Append(circuit.Gate{Name: "x", Target: b, Controls: ctl(ctlq, a)})
		c.Append(circuit.Gate{Name: "x", Target: a, Controls: ctl(ctlq, b)})
		c.Append(circuit.Gate{Name: "x", Target: b, Controls: ctl(ctlq, a)})
	default:
		return errAt(g.line, "unsupported gate %q", g.name)
	}
	return nil
}

type refGateDef struct {
	name   string
	params []string     // formal parameter names
	args   []string     // formal qubit argument names
	body   [][]refToken // one token slice per body statement (incl. ';')
	line   int
	opaque bool

	expanding bool
}

// parseGateDef parses `gate name(p, …) q, … { … }` after the `gate` keyword.
func (p *refParser) parseGateDef(opaque bool) error {
	nameTok := p.next()
	if nameTok.kind != refTokIdent {
		return p.errf(nameTok, "expected gate name")
	}
	def := &refGateDef{name: nameTok.text, line: nameTok.line, opaque: opaque}
	if p.peek().kind == refTokSymbol && p.peek().text == "(" {
		p.next()
		for p.peek().kind != refTokSymbol || p.peek().text != ")" {
			t := p.next()
			if t.kind != refTokIdent {
				return p.errf(t, "expected parameter name, got %q", t.text)
			}
			def.params = append(def.params, t.text)
			if p.peek().kind == refTokSymbol && p.peek().text == "," {
				p.next()
			}
		}
		p.next() // ')'
	}
	for {
		t := p.next()
		if t.kind != refTokIdent {
			return p.errf(t, "expected qubit argument name, got %q", t.text)
		}
		def.args = append(def.args, t.text)
		sep := p.peek()
		if sep.kind == refTokSymbol && sep.text == "," {
			p.next()
			continue
		}
		break
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
	// Capture body statements verbatim.
	var stmt []refToken
	for {
		t := p.next()
		switch {
		case t.kind == refTokEOF:
			return p.errf(t, "unterminated gate body for %q", def.name)
		case t.kind == refTokSymbol && t.text == "}":
			if len(stmt) != 0 {
				return p.errf(t, "gate body statement missing ';'")
			}
			p.gateDefs[def.name] = def
			return nil
		case t.kind == refTokSymbol && t.text == ";":
			stmt = append(stmt, t)
			def.body = append(def.body, stmt)
			stmt = nil
		default:
			stmt = append(stmt, t)
		}
	}
}

// expandDef macro-expands one application of a user-defined gate with the
// given actual parameters and global qubit arguments.
func (p *refParser) expandDef(def *refGateDef, params []float64, args []int, line int) ([]refPendingGate, error) {
	if def.opaque {
		return nil, errAt(line, "opaque gate %q has no body to simulate", def.name)
	}
	if len(params) != len(def.params) {
		return nil, errAt(line, "gate %s expects %d parameter(s), got %d",
			def.name, len(def.params), len(params))
	}
	if len(args) != len(def.args) {
		return nil, errAt(line, "gate %s expects %d argument(s), got %d",
			def.name, len(def.args), len(args))
	}
	if def.expanding {
		return nil, errAt(line, "gate %s is defined in terms of itself", def.name)
	}
	def.expanding = true
	defer func() { def.expanding = false }()
	bindings := make(map[string]float64, len(params))
	for i, name := range def.params {
		bindings[name] = params[i]
	}
	locals := make(map[string]int, len(args))
	for i, name := range def.args {
		locals[name] = args[i]
	}
	var out []refPendingGate
	for _, stmt := range def.body {
		sub := &refParser{
			toks:      append(append([]refToken{}, stmt...), refToken{kind: refTokEOF, line: line}),
			name:      p.name,
			qregs:     p.qregs,
			gateDefs:  p.gateDefs,
			bindings:  bindings,
			localArgs: locals,
			budget:    p.budget,
		}
		head := sub.next()
		if head.kind != refTokIdent {
			return nil, p.errf(head, "bad statement in gate %q body", def.name)
		}
		if head.text == "barrier" {
			continue // barriers inside gate bodies are no-ops here
		}
		gs, err := sub.parseGate(head)
		if err != nil {
			return nil, err
		}
		out = append(out, gs...)
	}
	return out, nil
}
