package qasm

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/circuit"
)

// Limits that keep a hostile program from exhausting memory or time.
// Register broadcasts and nested gate definitions multiply a short source
// many times over, so the limits bound what a program lowers to, not its
// length.
//
// maxRegisterBits caps the total width of the quantum and of the classical
// registers.
const maxRegisterBits = 1 << 16

// maxOps caps the ops a program lowers to, and with it the gate list's
// memory (88 bytes per circuit.Gate, 23 MB at the cap). 2^18 is the op
// count of a 1 MiB program, the daemons' default request limit, made of
// the shortest one-op statements (`x q;`), and 18× the largest benchmark
// program (lowered BWT 6×60, 14,341 ops). It is a variable so tests can
// lower it.
var maxOps = 1 << 18

// workPerOp caps expansion work at workPerOp units per allowed op. A unit
// is one operand bound to a gate application or one gate-body token
// replayed, so definitions whose bodies lower to nothing still cost time
// and are bounded too.
const workPerOp = 16

// maxGateDepth caps how deeply gate definitions may call one another. Each
// level of an expansion recurses in the parser, under 1 KB of goroutine
// stack, so without a cap a 1 MiB chain `gate g_i a { g_{i-1} a; }` of
// 38,241 levels grew the stack by 34 MB. The deepest nesting in the
// testdata and the tests is 2 and the benchmark workloads use no
// definitions at all; 64 also keeps the 40-level doubling chain that
// exercises the work cap below the cap.
const maxGateDepth = 64

// presizeCap bounds the gate list and control chunk pre-sized from the
// statement count, so a body of bare ';' allocates at most a few MB
// before its first error. Larger programs grow by append.
const presizeCap = 1 << 15

// Parse reads an OpenQASM 2.0 program and returns the flattened circuit.
// Supported statements: OPENQASM version header, include (ignored),
// qreg/creg declarations, the qelib1 gate set (see lowerGate), barrier
// (ignored), measure and reset (positioned non-unitary ops in the IR) and
// `if (creg == value) qop;` classical control.
//
// Parsing is one pass: the parser pulls tokens from the lexer on demand and
// lowers each statement straight into the circuit's gate list. Control and
// parameter slices are cut from per-parse arenas. A program with several
// errors reports the first in source order.
func Parse(src, name string) (*circuit.Circuit, error) {
	// Every statement ends in ';', so the count bounds the gate list of a
	// program without broadcasts or multi-gate lowerings.
	nstmt := min(strings.Count(src, ";"), presizeCap)
	p := &parser{
		lex:      lexer{src: src, line: 1},
		name:     name,
		qregs:    map[string]qreg{},
		cregs:    map[string]qreg{},
		gateDefs: map[string]*gateDef{},
		gates:    make([]circuit.Gate, 0, nstmt),
		ctrls:    arena[circuit.Control]{chunk: max(nstmt, 16)},
		params:   arena[float64]{chunk: 64},
	}
	p.look = p.scan()
	c, err := p.parse()
	// The lexer error lies past every token the parser took, so it comes
	// first only if the parser failed on (or finished at) the end of the
	// stream it left.
	if p.lexErr != nil && (err == nil || p.atLexErr) {
		return nil, p.lexErr
	}
	return c, err
}

type qreg struct {
	offset, size int
}

// operand is a parsed gate operand: one qubit (size 1) or a whole register
// of size qubits starting at first, which broadcasts element-wise.
type operand struct {
	first, size int
}

// at returns the operand's qubit for broadcast index i.
func (o operand) at(i int) int {
	if o.size == 1 {
		return o.first
	}
	return o.first + i
}

type parser struct {
	lex      lexer
	look     token // lookahead pulled from lex
	lexErr   error // first lexer error; it ends the token stream
	atLexErr bool  // the parser took the end of the stream lexErr left

	// While a gate definition is being expanded, tokens come from its body
	// instead of the lexer, and frame binds its formal names. frames holds
	// the active expansions, innermost last; frame points at the last.
	frames []frame
	frame  *frame

	name string

	qregs   map[string]qreg
	nqubits int
	cregs   map[string]qreg
	ncbits  int

	gateDefs map[string]*gateDef

	// Output and its arenas.
	gates    []circuit.Gate
	overflow bool // an op past maxOps was dropped
	ctrls    arena[circuit.Control]
	params   arena[float64]

	// Per-statement scratch, used as stacks: a statement pushes onto them and
	// truncates back when done, so expansions nested inside it keep its
	// entries intact.
	opnds []operand
	vals  []float64
	args  []int

	// Repeated-operand check: seen[q] == stamp marks qubit q as bound by
	// the application being checked, so the check is linear.
	seen  []uint32
	stamp uint32

	work int // expansion work done so far, see workPerOp
}

// arena hands out slices cut from shared chunks, so many small slices cost
// one allocation per chunk. Each slice is capped at its length: an append to
// it reallocates instead of overwriting its neighbour.
type arena[T any] struct {
	buf   []T
	chunk int
}

func (a *arena[T]) take(n int) []T {
	if n == 0 {
		return nil
	}
	if len(a.buf)+n > cap(a.buf) {
		a.buf = make([]T, 0, max(n, a.chunk))
		a.chunk = min(2*a.chunk, 1<<14)
	}
	i := len(a.buf)
	a.buf = a.buf[:i+n]
	return a.buf[i : i+n : i+n]
}

func (p *parser) scan() token {
	t, err := p.lex.next()
	if err != nil {
		p.lexErr = err
		return token{kind: tokEOF, line: p.lex.line}
	}
	return t
}

func (p *parser) peek() token {
	if f := p.frame; f != nil {
		return f.peek()
	}
	return p.look
}

func (p *parser) next() token {
	if f := p.frame; f != nil {
		t := f.peek()
		if f.pos < len(f.def.body) {
			f.pos++
		}
		return t
	}
	t := p.look
	if t.kind != tokEOF {
		p.look = p.scan()
	} else if p.lexErr != nil {
		p.atLexErr = true
	}
	return t
}

func (p *parser) errf(t token, format string, args ...any) error {
	return errAt(t.line, format, args...)
}

func isSymbol(t token, s string) bool { return t.kind == tokSymbol && t.text == s }

func (p *parser) expectSymbol(s string) error {
	t := p.next()
	if !isSymbol(t, s) {
		return p.errf(t, "expected %q, got %q", s, t.text)
	}
	return nil
}

func (p *parser) parse() (*circuit.Circuit, error) {
	for {
		t := p.next()
		var err error
		switch {
		case t.kind == tokEOF:
			goto done
		case t.kind == tokIdent && t.text == "OPENQASM":
			if v := p.next(); v.kind != tokNumber {
				return nil, p.errf(v, "expected version number")
			}
			err = p.expectSymbol(";")
		case t.kind == tokIdent && t.text == "include":
			if s := p.next(); s.kind != tokString {
				return nil, p.errf(s, "expected include path")
			}
			err = p.expectSymbol(";")
		case t.kind == tokIdent && (t.text == "qreg" || t.text == "creg"):
			err = p.parseRegister(t.text == "qreg")
		case t.kind == tokIdent && t.text == "gate":
			err = p.parseGateDef(false)
		case t.kind == tokIdent && t.text == "opaque":
			err = p.parseGateDef(true)
		case t.kind == tokIdent && t.text == "barrier":
			for p.peek().kind != tokEOF {
				if isSymbol(p.next(), ";") {
					break
				}
			}
		case t.kind == tokIdent && t.text == "if":
			err = p.parseIf()
		case t.kind == tokIdent:
			err = p.parseQop(t, nil)
		default:
			return nil, p.errf(t, "unexpected token %q", t.text)
		}
		if err != nil {
			return nil, err
		}
	}
done:
	if p.nqubits == 0 {
		return nil, fmt.Errorf("qasm: no qreg declared")
	}
	c := &circuit.Circuit{Name: p.name, N: p.nqubits, Cbits: p.ncbits}
	if len(p.gates) > 0 {
		c.Gates = p.gates
	}
	return c, nil
}

// parseRegister parses the rest of `qreg name[size];` or `creg name[size];`.
func (p *parser) parseRegister(quantum bool) error {
	nameTok := p.next()
	if nameTok.kind != tokIdent {
		return p.errf(nameTok, "expected register name")
	}
	if err := p.expectSymbol("["); err != nil {
		return err
	}
	szTok := p.next()
	sz, err := strconv.Atoi(szTok.text)
	if err != nil || sz <= 0 {
		return p.errf(szTok, "bad register size %q", szTok.text)
	}
	if err := p.expectSymbol("]"); err != nil {
		return err
	}
	if err := p.expectSymbol(";"); err != nil {
		return err
	}
	regs, total := p.cregs, &p.ncbits
	if quantum {
		regs, total = p.qregs, &p.nqubits
	}
	if sz > maxRegisterBits-*total {
		return p.errf(szTok, "register %s[%d] takes the program past %d bits", nameTok.text, sz, maxRegisterBits)
	}
	regs[nameTok.text] = qreg{offset: *total, size: sz}
	*total += sz
	return nil
}

// emit appends one op. The list grows by doubling up to maxOps entries;
// an op past the cap is dropped and flagged for emitted to report, so
// building a list at the cap allocates at most twice its final size.
func (p *parser) emit(g circuit.Gate) {
	n := len(p.gates)
	if n == maxOps {
		p.overflow = true
		return
	}
	if n == cap(p.gates) {
		grown := make([]circuit.Gate, n, min(max(2*n, 16), maxOps))
		copy(grown, p.gates)
		p.gates = grown
	}
	p.gates = append(p.gates, g)
}

// emitted checks the op budget after a statement lowered more ops.
func (p *parser) emitted(line int) error {
	if p.overflow {
		return errAt(line, "program lowers to more than %d ops", maxOps)
	}
	return nil
}

// spend charges n units of expansion work, see workPerOp.
func (p *parser) spend(line, n int) error {
	p.work += n
	if p.work > workPerOp*maxOps {
		return errAt(line, "program expansion takes more than %d steps", workPerOp*maxOps)
	}
	return nil
}

// parseQop parses one quantum operation statement (gate application,
// measure, or reset) starting at its head token, attaching cond to every
// resulting op. A classical condition guards each gate of a multi-gate
// lowering like swap; they fire all-or-nothing, so this is exact.
func (p *parser) parseQop(head token, cond *circuit.Cond) error {
	switch head.text {
	case "measure":
		return p.parseMeasure(head, cond)
	case "reset":
		q, err := p.parseOperand()
		if err != nil {
			return err
		}
		if err := p.expectSymbol(";"); err != nil {
			return err
		}
		for i := 0; i < q.size; i++ {
			p.emit(circuit.Gate{Name: circuit.OpReset, Target: q.first + i, Cond: cond})
		}
		return p.emitted(head.line)
	default:
		return p.parseGate(head, cond)
	}
}

// parseMeasure parses `measure q[i] -> c[j];` (or the whole-register form,
// which broadcasts element-wise and requires equal sizes).
func (p *parser) parseMeasure(head token, cond *circuit.Cond) error {
	q, err := p.parseOperand()
	if err != nil {
		return err
	}
	if a := p.next(); a.kind != tokArrow {
		return p.errf(a, "expected -> in measure")
	}
	c, err := p.parseClOperand()
	if err != nil {
		return err
	}
	if err := p.expectSymbol(";"); err != nil {
		return err
	}
	if q.size != c.size {
		return errAt(head.line, "measure register sizes differ (%d qubits -> %d classical bits)",
			q.size, c.size)
	}
	for i := 0; i < q.size; i++ {
		p.emit(circuit.Gate{Name: circuit.OpMeasure, Target: q.first + i,
			Clbit: c.first + i, Cond: cond})
	}
	return p.emitted(head.line)
}

// parseIf parses `if (creg == value) qop;` — OpenQASM 2.0 conditions compare
// one whole classical register against a non-negative integer.
func (p *parser) parseIf() error {
	if err := p.expectSymbol("("); err != nil {
		return err
	}
	regTok := p.next()
	if regTok.kind != tokIdent {
		return p.errf(regTok, "expected classical register in if, got %q", regTok.text)
	}
	r, ok := p.cregs[regTok.text]
	if !ok {
		return p.errf(regTok, "unknown classical register %q", regTok.text)
	}
	if r.size > 64 {
		return p.errf(regTok, "register %s[%d] too wide for a classical condition (max 64)",
			regTok.text, r.size)
	}
	if eq := p.next(); eq.kind != tokEquals {
		return p.errf(eq, "expected == in if, got %q", eq.text)
	}
	valTok := p.next()
	val, err := strconv.ParseUint(valTok.text, 10, 64)
	if err != nil {
		return p.errf(valTok, "bad comparison value %q in if", valTok.text)
	}
	if r.size < 64 && val >= 1<<uint(r.size) {
		return p.errf(valTok, "comparison value %d does not fit register %s[%d]",
			val, regTok.text, r.size)
	}
	if err := p.expectSymbol(")"); err != nil {
		return err
	}
	body := p.next()
	if body.kind != tokIdent {
		return p.errf(body, "expected quantum op after if, got %q", body.text)
	}
	if body.text == "if" {
		return p.errf(body, "nested if is not allowed")
	}
	return p.parseQop(body, &circuit.Cond{Offset: r.offset, Width: r.size, Value: val})
}

// parseClOperand parses a classical operand "c" (whole register) or "c[3]".
func (p *parser) parseClOperand() (operand, error) {
	t := p.next()
	if t.kind != tokIdent {
		return operand{}, p.errf(t, "expected classical register operand, got %q", t.text)
	}
	r, ok := p.cregs[t.text]
	if !ok {
		return operand{}, p.errf(t, "unknown classical register %q", t.text)
	}
	return p.parseIndex(t, r)
}

// parseOperand parses "q" (whole register) or "q[3]". Inside a
// gate-definition body, bare formal argument names resolve to the bound
// qubits.
func (p *parser) parseOperand() (operand, error) {
	t := p.next()
	if t.kind != tokIdent {
		return operand{}, p.errf(t, "expected register operand, got %q", t.text)
	}
	if f := p.frame; f != nil {
		if q, ok := f.arg(t.text); ok {
			return operand{first: q, size: 1}, nil
		}
	}
	r, ok := p.qregs[t.text]
	if !ok {
		return operand{}, p.errf(t, "unknown quantum register %q", t.text)
	}
	return p.parseIndex(t, r)
}

// parseIndex parses the optional "[i]" after register name t.
func (p *parser) parseIndex(t token, r qreg) (operand, error) {
	if !isSymbol(p.peek(), "[") {
		return operand{first: r.offset, size: r.size}, nil
	}
	p.next()
	it := p.next()
	idx, err := strconv.Atoi(it.text)
	if err != nil || idx < 0 || idx >= r.size {
		return operand{}, p.errf(it, "bad index %q into register %s[%d]", it.text, t.text, r.size)
	}
	if err := p.expectSymbol("]"); err != nil {
		return operand{}, err
	}
	return operand{first: r.offset + idx, size: 1}, nil
}

// parseGate parses one gate application statement starting at the name
// token and lowers it: a user-defined gate is macro-expanded, anything else
// goes through lowerGate.
func (p *parser) parseGate(nameTok token, cond *circuit.Cond) error {
	vbase, obase, abase := len(p.vals), len(p.opnds), len(p.args)
	defer func() {
		p.vals, p.opnds, p.args = p.vals[:vbase], p.opnds[:obase], p.args[:abase]
	}()
	if isSymbol(p.peek(), "(") {
		p.next()
		for {
			v, err := p.parseExpr()
			if err != nil {
				return err
			}
			p.vals = append(p.vals, v)
			t := p.next()
			if isSymbol(t, ")") {
				break
			}
			if !isSymbol(t, ",") {
				return p.errf(t, "expected , or ) in parameter list")
			}
		}
	}
	for {
		o, err := p.parseOperand()
		if err != nil {
			return err
		}
		p.opnds = append(p.opnds, o)
		t := p.next()
		if isSymbol(t, ";") {
			break
		}
		if !isSymbol(t, ",") {
			return p.errf(t, "expected , or ; after operand")
		}
	}
	vals := p.vals[vbase:len(p.vals):len(p.vals)]
	opnds := p.opnds[obase:len(p.opnds):len(p.opnds)]
	// Broadcast whole-register operands: all operand lists must have equal
	// length (or length 1).
	width := 1
	for _, o := range opnds {
		width = max(width, o.size)
	}
	for _, o := range opnds {
		if o.size != 1 && o.size != width {
			return p.errf(nameTok, "mismatched register sizes in %s", nameTok.text)
		}
	}
	def := p.gateDefs[nameTok.text]
	var params []float64 // a builtin's parameters, shared by its broadcast
	if def == nil {
		params = p.params.take(len(vals))
		copy(params, vals)
	}
	if len(p.seen) < p.nqubits {
		p.seen = make([]uint32, p.nqubits)
	}
	for i := 0; i < width; i++ {
		if err := p.spend(nameTok.line, len(opnds)); err != nil {
			return err
		}
		if p.stamp++; p.stamp == 0 { // wrapped: old marks could collide
			clear(p.seen)
			p.stamp = 1
		}
		p.args = p.args[:abase]
		for _, o := range opnds {
			q := o.at(i)
			if p.seen[q] == p.stamp {
				return errAt(nameTok.line, "%s applied to qubit %d more than once", nameTok.text, q)
			}
			p.seen[q] = p.stamp
			p.args = append(p.args, q)
		}
		args := p.args[abase:len(p.args):len(p.args)]
		var err error
		if def != nil {
			err = p.expandDef(def, vals, args, nameTok.line, cond)
		} else {
			err = p.lowerGate(nameTok.text, nameTok.line, params, args, cond)
		}
		if err == nil {
			err = p.emitted(nameTok.line)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// parseExpr evaluates a constant parameter expression with + - * / ^, unary
// minus, parentheses and the constant pi.
func (p *parser) parseExpr() (float64, error) { return p.parseAddSub() }

func (p *parser) parseAddSub() (float64, error) {
	v, err := p.parseMulDiv()
	if err != nil {
		return 0, err
	}
	for {
		t := p.peek()
		if t.kind == tokSymbol && (t.text == "+" || t.text == "-") {
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

func (p *parser) parseMulDiv() (float64, error) {
	v, err := p.parseUnary()
	if err != nil {
		return 0, err
	}
	for {
		t := p.peek()
		if t.kind == tokSymbol && (t.text == "*" || t.text == "/" || t.text == "^") {
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

func (p *parser) parseUnary() (float64, error) {
	t := p.next()
	switch {
	case isSymbol(t, "-"):
		v, err := p.parseUnary()
		return -v, err
	case isSymbol(t, "+"):
		return p.parseUnary()
	case isSymbol(t, "("):
		v, err := p.parseExpr()
		if err != nil {
			return 0, err
		}
		return v, p.expectSymbol(")")
	case t.kind == tokNumber:
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return 0, p.errf(t, "bad number %q", t.text)
		}
		return v, nil
	case t.kind == tokIdent && t.text == "pi":
		return math.Pi, nil
	case t.kind == tokIdent && p.frame != nil:
		if v, ok := p.frame.param(t.text); ok {
			return v, nil
		}
	}
	return 0, p.errf(t, "unexpected token %q in expression", t.text)
}

// lowerGate appends one application of a qelib1-style gate to the circuit.
// params is already arena-owned; args are distinct qubits.
func (p *parser) lowerGate(name string, line int, params []float64, args []int, cond *circuit.Cond) error {
	need := func(nArgs, nParams int) error {
		if len(args) != nArgs {
			return errAt(line, "%s expects %d operand(s), got %d", name, nArgs, len(args))
		}
		if len(params) != nParams {
			return errAt(line, "%s expects %d parameter(s), got %d", name, nParams, len(params))
		}
		return nil
	}
	emit := func(name string, target int, ctrls []circuit.Control, params []float64) {
		p.emit(circuit.Gate{Name: name, Target: target, Controls: ctrls, Params: params, Cond: cond})
	}
	switch name {
	case "x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx", "sxdg", "id", "i":
		if err := need(1, 0); err != nil {
			return err
		}
		emit(name, args[0], nil, nil)
	case "rz", "rx", "ry", "p", "u1", "phase":
		if err := need(1, 1); err != nil {
			return err
		}
		if name == "u1" || name == "phase" {
			name = "p"
		}
		emit(name, args[0], nil, params)
	case "u", "u3":
		if err := need(1, 3); err != nil {
			return err
		}
		emit("u", args[0], nil, params)
	case "u2":
		if err := need(1, 2); err != nil {
			return err
		}
		u := p.params.take(3)
		u[0], u[1], u[2] = math.Pi/2, params[0], params[1]
		emit("u", args[0], nil, u)
	case "cx", "CX", "cz", "cy", "ch":
		if err := need(2, 0); err != nil {
			return err
		}
		base := "x"
		switch name {
		case "cz":
			base = "z"
		case "cy":
			base = "y"
		case "ch":
			base = "h"
		}
		emit(base, args[1], p.ctl(args[0]), nil)
	case "crz", "cp", "cu1":
		if err := need(2, 1); err != nil {
			return err
		}
		base := "p"
		if name == "crz" {
			base = "rz"
		}
		emit(base, args[1], p.ctl(args[0]), params)
	case "ccx":
		if err := need(3, 0); err != nil {
			return err
		}
		emit("x", args[2], p.ctl(args[0], args[1]), nil)
	case "swap":
		if err := need(2, 0); err != nil {
			return err
		}
		a, b := args[0], args[1]
		emit("x", b, p.ctl(a), nil)
		emit("x", a, p.ctl(b), nil)
		emit("x", b, p.ctl(a), nil)
	case "cswap":
		if err := need(3, 0); err != nil {
			return err
		}
		// Fredkin via three Toffolis.
		ctlq, a, b := args[0], args[1], args[2]
		emit("x", b, p.ctl(ctlq, a), nil)
		emit("x", a, p.ctl(ctlq, b), nil)
		emit("x", b, p.ctl(ctlq, a), nil)
	default:
		return errAt(line, "unsupported gate %q", name)
	}
	return nil
}

// ctl cuts a positive-control list over qs from the control arena.
func (p *parser) ctl(qs ...int) []circuit.Control {
	cs := p.ctrls.take(len(qs))
	for i, q := range qs {
		cs[i] = circuit.Control{Qubit: q}
	}
	return cs
}
