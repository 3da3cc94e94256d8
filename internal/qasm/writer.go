package qasm

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/circuit"
)

// Write emits the circuit as an OpenQASM 2.0 program. A gate Expressible
// rejects (more than two positive controls, any negative control, or a
// controlled gate qelib1 has no name for) causes an error; load.Lower
// rewrites such circuits exactly first.
//
// Classical bits are emitted as creg declarations reconstructed from the
// circuit: every classical condition must compare a whole register in
// OpenQASM 2.0, so each distinct condition range becomes one creg (two
// conditions whose bit ranges overlap without being identical are
// unwritable and error out) and the remaining bits are grouped into filler
// registers from maximal runs.
func Write(w io.Writer, c *circuit.Circuit) error {
	var sb strings.Builder
	sb.WriteString("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n")
	fmt.Fprintf(&sb, "qreg q[%d];\n", c.N)
	regs, err := classicalRegs(c)
	if err != nil {
		return err
	}
	for _, r := range regs {
		fmt.Fprintf(&sb, "creg %s[%d];\n", r.name, r.size)
	}
	for i, g := range c.Gates {
		line, err := stmtLine(g, regs)
		if err != nil {
			return fmt.Errorf("qasm: gate %d: %w", i, err)
		}
		sb.WriteString(line)
		sb.WriteByte('\n')
	}
	_, err = io.WriteString(w, sb.String())
	return err
}

// creg is one reconstructed classical register covering the bit range
// [offset, offset+size).
type creg struct {
	name         string
	offset, size int
}

// classicalRegs partitions [0, Cbits) into registers compatible with every
// classical condition in the circuit.
func classicalRegs(c *circuit.Circuit) ([]creg, error) {
	if c.Cbits == 0 {
		return nil, nil
	}
	type span struct{ off, width int }
	var spans []span
	seen := map[span]bool{}
	for _, g := range c.Gates {
		if g.Cond == nil {
			continue
		}
		s := span{g.Cond.Offset, g.Cond.Width}
		if !seen[s] {
			seen[s] = true
			spans = append(spans, s)
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].off < spans[j].off })
	var regs []creg
	cur := 0
	filler := func(from, to int) {
		if to > from {
			regs = append(regs, creg{offset: from, size: to - from})
		}
	}
	for _, s := range spans {
		if s.off < cur {
			return nil, fmt.Errorf("qasm: overlapping classical conditions (bit ranges [%d:%d) and an earlier one) cannot be expressed as cregs",
				s.off, s.off+s.width)
		}
		filler(cur, s.off)
		regs = append(regs, creg{offset: s.off, size: s.width})
		cur = s.off + s.width
	}
	filler(cur, c.Cbits)
	if len(regs) == 1 {
		regs[0].name = "c"
	} else {
		for i := range regs {
			regs[i].name = fmt.Sprintf("c%d", i)
		}
	}
	return regs, nil
}

// stmtLine renders one op as an OpenQASM 2.0 statement, including the
// if-prefix for conditioned ops.
func stmtLine(g circuit.Gate, regs []creg) (string, error) {
	prefix := ""
	if cd := g.Cond; cd != nil {
		var name string
		for _, r := range regs {
			if r.offset == cd.Offset && r.size == cd.Width {
				name = r.name
				break
			}
		}
		if name == "" { // classicalRegs guarantees a match; defensive
			return "", fmt.Errorf("condition range [%d:%d) has no register", cd.Offset, cd.Offset+cd.Width)
		}
		prefix = fmt.Sprintf("if(%s==%d) ", name, cd.Value)
	}
	switch {
	case g.IsMeasure():
		for _, r := range regs {
			if g.Clbit >= r.offset && g.Clbit < r.offset+r.size {
				return fmt.Sprintf("%smeasure q[%d] -> %s[%d];", prefix, g.Target, r.name, g.Clbit-r.offset), nil
			}
		}
		return "", fmt.Errorf("classical bit %d outside every register", g.Clbit)
	case g.IsReset():
		return fmt.Sprintf("%sreset q[%d];", prefix, g.Target), nil
	}
	line, err := gateLine(g)
	if err != nil {
		return "", err
	}
	return prefix + line, nil
}

// Expressible reports whether Write can spell op g as one OpenQASM 2.0
// statement: measure and reset always, a unitary gate when qelib1 has a
// gate for its name and positive-control count.
func Expressible(g circuit.Gate) bool {
	if g.IsMeasure() || g.IsReset() {
		return true
	}
	_, err := qelib1Name(g)
	return err == nil
}

// qelib1Name returns the qelib1 gate that spells the unitary gate g, with
// g's controls as its leading operands. This switch is the one statement of
// what OpenQASM 2.0 can express; Write and Expressible both use it.
func qelib1Name(g circuit.Gate) (string, error) {
	for _, c := range g.Controls {
		if c.Neg {
			return "", fmt.Errorf("negative controls are not expressible in OpenQASM 2.0")
		}
	}
	switch len(g.Controls) {
	case 0:
		if g.Name == "u" {
			return "u3", nil
		}
		return g.Name, nil
	case 1:
		switch g.Name {
		case "x", "z", "y", "h":
			return "c" + g.Name, nil
		case "p":
			return "cu1", nil
		case "rz":
			return "crz", nil
		}
		return "", fmt.Errorf("no OpenQASM 2.0 spelling for controlled %q", g.Name)
	case 2:
		if g.Name == "x" {
			return "ccx", nil
		}
		return "", fmt.Errorf("no OpenQASM 2.0 spelling for doubly-controlled %q", g.Name)
	}
	return "", fmt.Errorf("OpenQASM 2.0 has no gates with %d controls", len(g.Controls))
}

func gateLine(g circuit.Gate) (string, error) {
	name, err := qelib1Name(g)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString(name)
	if len(g.Params) > 0 {
		parts := make([]string, len(g.Params))
		for i, p := range g.Params {
			parts[i] = fmt.Sprintf("%.17g", p)
		}
		sb.WriteString("(" + strings.Join(parts, ",") + ")")
	}
	sb.WriteByte(' ')
	for _, c := range g.Controls {
		fmt.Fprintf(&sb, "q[%d],", c.Qubit)
	}
	fmt.Fprintf(&sb, "q[%d];", g.Target)
	return sb.String(), nil
}
