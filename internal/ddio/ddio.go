// Package ddio serializes QMDDs to a line-oriented text format and reads
// them back, so that exactly-computed diagrams (states, circuit unitaries,
// verification references) can be stored and exchanged without any loss —
// one of the practical payoffs of the algebraic representation, since a
// serialized exact diagram is a portable certificate.
//
// Format (one record per line):
//
//	qmdd v1 <ring> <qubits>
//	n <idx> <level> <w>:<child> …      child = earlier idx or "t"
//	root <w>:<idx|t>
//
// Nodes appear children-first, children in edge order (core's Edge.Nodes);
// weights are ring-specific opaque tokens.
//
// Version 2 (WriteMeta) inserts one metadata record after the header:
//
//	qmdd v2 <ring> <qubits>
//	meta repr=<repr> norm=<norm> eps=<hexfloat>
//
// The metadata stamps how the diagram was produced so a reader reusing a
// stored diagram (the qcache disk tier, qsim warm starts) can refuse a file
// whose provenance does not match what it is about to serve. Read accepts
// both versions; v1 files simply carry no metadata.
package ddio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/core"
)

// Codec encodes and decodes edge weights of a concrete ring.
type Codec[T any] interface {
	RingName() string
	Encode(T) string
	Decode(string) (T, error)
}

// Meta is the provenance stamp of a version-2 file: which representation
// produced the diagram ("alg" or "float"), under which normalization
// scheme, and — for the float representation — at which interning
// tolerance. Exact algebraic diagrams are ε-independent, so Eps is ignored
// when Repr is "alg" (both when writing and when checking).
type Meta struct {
	// Version is the file format version the stamp was read from (FormatV1
	// for headerless files, FormatV2 when a meta record was present). It is
	// informational on writes — WriteMeta always emits FormatV2.
	Version int
	Repr    string
	Norm    string
	Eps     float64
}

// FormatVersion reported for files read without a meta record.
const (
	FormatV1 = 1
	FormatV2 = 2
)

// MismatchError reports a v2 metadata field that contradicts what the
// reader required. It is a typed error so callers can distinguish "this
// cached artifact belongs to a different configuration" (drop and rebuild)
// from a corrupt or hostile file.
type MismatchError struct {
	Field string // "version", "repr", "norm" or "eps"
	Got   string
	Want  string
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("ddio: header %s is %q, want %q", e.Field, e.Got, e.Want)
}

// check compares the stamped metadata against a requirement.
func (meta Meta) check(want Meta) error {
	if meta.Repr != want.Repr {
		return &MismatchError{Field: "repr", Got: meta.Repr, Want: want.Repr}
	}
	if meta.Norm != want.Norm {
		return &MismatchError{Field: "norm", Got: meta.Norm, Want: want.Norm}
	}
	if want.Repr == "float" && meta.Eps != want.Eps {
		return &MismatchError{
			Field: "eps",
			Got:   strconv.FormatFloat(meta.Eps, 'x', -1, 64),
			Want:  strconv.FormatFloat(want.Eps, 'x', -1, 64),
		}
	}
	return nil
}

// Write serializes the diagram rooted at e in the version-1 format (no
// metadata record).
func Write[T any](w io.Writer, m *core.Manager[T], c Codec[T], e core.Edge[T], qubits int) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "qmdd v1 %s %d\n", c.RingName(), qubits); err != nil {
		return err
	}
	return writeBody(bw, c, e)
}

// WriteMeta serializes the diagram in the version-2 format, stamping it
// with the given provenance metadata. Eps is normalized to 0 for non-float
// representations so byte output never depends on an irrelevant field.
func WriteMeta[T any](w io.Writer, m *core.Manager[T], c Codec[T], e core.Edge[T], qubits int, meta Meta) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "qmdd v2 %s %d\n", c.RingName(), qubits); err != nil {
		return err
	}
	eps := meta.Eps
	if meta.Repr != "float" {
		eps = 0
	}
	if _, err := fmt.Fprintf(bw, "meta repr=%s norm=%s eps=%s\n",
		meta.Repr, meta.Norm, strconv.FormatFloat(eps, 'x', -1, 64)); err != nil {
		return err
	}
	return writeBody(bw, c, e)
}

// writeBody emits the node and root records (shared by both versions), in
// the order of core's node walk: children first, in edge order. That order
// is part of the format's bytes, which cached diagrams and checkpoints
// carry.
func writeBody[T any](bw *bufio.Writer, c Codec[T], e core.Edge[T]) error {
	nodes, pos := e.Nodes()
	ref := func(n *core.Node[T]) string {
		if n == nil {
			return "t"
		}
		return strconv.Itoa(pos[n])
	}
	for i, n := range nodes {
		fmt.Fprintf(bw, "n %d %d", i, n.Level)
		for _, ch := range n.E {
			fmt.Fprintf(bw, " %s:%s", c.Encode(ch.W), ref(ch.N))
		}
		fmt.Fprintln(bw)
	}
	fmt.Fprintf(bw, "root %s:%s\n", c.Encode(e.W), ref(e.N))
	return bw.Flush()
}

// Limits bounds what ReadMeta accepts — the defense against hostile
// input now that diagrams arrive over the network (qmddd). The zero value
// of any field selects its default.
type Limits struct {
	// MaxNodes caps the number of node records (default DefaultMaxNodes).
	MaxNodes int
	// MaxLineBytes caps the length of a single input line (default
	// DefaultMaxLineBytes); longer lines fail with a clear error instead of
	// buffering unboundedly.
	MaxLineBytes int
	// MaxQubits caps the header's qubit count (default DefaultMaxQubits).
	MaxQubits int
}

// Default caps ReadMeta applies for zero Limits fields.
const (
	DefaultMaxNodes     = 1 << 20
	DefaultMaxLineBytes = 1 << 24
	DefaultMaxQubits    = 1 << 16
)

func (l Limits) withDefaults() Limits {
	if l.MaxNodes <= 0 {
		l.MaxNodes = DefaultMaxNodes
	}
	if l.MaxLineBytes <= 0 {
		l.MaxLineBytes = DefaultMaxLineBytes
	}
	if l.MaxQubits <= 0 {
		l.MaxQubits = DefaultMaxQubits
	}
	return l
}

// ReadMeta deserializes a diagram into the manager (re-normalizing through
// MakeNode, so the result is canonical in the target manager regardless of
// the writer's normalization scheme). It returns the root edge, the qubit
// count recorded in the header and the file's provenance stamp (Version
// FormatV1 with zero fields for headerless v1 files). Input is validated
// under lim (zero fields take the defaults): malformed input — duplicate or
// out-of-order node indices, references to undefined indices, children at
// a level not strictly below their parent, mixed vector/matrix arities, or
// input exceeding the caps — is rejected with a descriptive error. Panics
// from the diagram core (e.g. a manager budget tripping mid-decode) are
// converted to errors, so a network front end never crashes on a payload.
// When want is non-nil, a diagram whose stamped repr/norm/ε contradicts
// the requirement is refused with a *MismatchError — a v1 file fails such
// a check outright, since it certifies nothing. This is the validation
// gate of the qcache disk tier and of peer fetches.
func ReadMeta[T any](r io.Reader, m *core.Manager[T], c Codec[T], lim Limits, want *Meta) (_ core.Edge[T], _ int, meta Meta, err error) {
	defer core.RecoverTo(&err)
	lim = lim.withDefaults()
	var zero core.Edge[T]
	sc := bufio.NewScanner(r)
	// The scanner's cap is the larger of the initial buffer and max, so the
	// initial buffer must not exceed the configured line cap.
	bufSize := 64 << 10
	if lim.MaxLineBytes < bufSize {
		bufSize = lim.MaxLineBytes
	}
	sc.Buffer(make([]byte, bufSize), lim.MaxLineBytes)
	scanErr := func() error {
		if e := sc.Err(); e == bufio.ErrTooLong {
			return fmt.Errorf("ddio: line exceeds %d bytes", lim.MaxLineBytes)
		} else if e != nil {
			return e
		}
		return nil
	}
	if !sc.Scan() {
		if e := scanErr(); e != nil {
			return zero, 0, meta, e
		}
		return zero, 0, meta, fmt.Errorf("ddio: empty input")
	}
	header := strings.Fields(sc.Text())
	if len(header) != 4 || header[0] != "qmdd" || (header[1] != "v1" && header[1] != "v2") {
		return zero, 0, meta, fmt.Errorf("ddio: bad header %q", sc.Text())
	}
	meta.Version = FormatV1
	if header[1] == "v2" {
		meta.Version = FormatV2
	}
	if header[2] != c.RingName() {
		return zero, 0, meta, fmt.Errorf("ddio: diagram uses ring %q, codec provides %q", header[2], c.RingName())
	}
	qubits, err := strconv.Atoi(header[3])
	if err != nil || qubits < 0 {
		return zero, 0, meta, fmt.Errorf("ddio: bad qubit count %q", header[3])
	}
	if qubits > lim.MaxQubits {
		return zero, 0, meta, fmt.Errorf("ddio: %d qubits exceeds cap %d", qubits, lim.MaxQubits)
	}

	// A v2 file carries its provenance in one meta record directly after the
	// header; a v1 file certifies nothing. Either way the requirement check
	// happens here, before any diagram work is spent on a mismatched file.
	if meta.Version >= FormatV2 {
		if !sc.Scan() {
			if e := scanErr(); e != nil {
				return zero, 0, meta, e
			}
			return zero, 0, meta, fmt.Errorf("ddio: v2 file is missing its meta record")
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || fields[0] != "meta" {
			return zero, 0, meta, fmt.Errorf("ddio: v2 file must carry a meta record after the header, got %q", sc.Text())
		}
		for _, kv := range fields[1:] {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return zero, 0, meta, fmt.Errorf("ddio: bad meta field %q", kv)
			}
			switch k {
			case "repr":
				meta.Repr = v
			case "norm":
				meta.Norm = v
			case "eps":
				eps, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return zero, 0, meta, fmt.Errorf("ddio: bad meta eps %q", v)
				}
				meta.Eps = eps
			default:
				// Unknown keys are ignored: future versions may add fields
				// without breaking older readers.
			}
		}
	}
	if want != nil {
		if meta.Version < FormatV2 {
			return zero, 0, meta, &MismatchError{Field: "version", Got: "v1 (unstamped)", Want: "v2"}
		}
		if err := meta.check(*want); err != nil {
			return zero, 0, meta, err
		}
	}

	// edge i = the normalized edge standing in for written node i; levels[i]
	// remembers the written level so child references can be checked for
	// strict level decrease (MakeNode canonicalization may collapse a node,
	// so the normalized edge's own level is not the written one).
	var edges []core.Edge[T]
	var levels []int
	arity := 0 // fan-out of the first node; all nodes must match
	parseEdge := func(tok string, parentLevel int) (core.Edge[T], error) {
		colon := strings.LastIndexByte(tok, ':')
		if colon < 0 {
			return zero, fmt.Errorf("ddio: bad edge token %q", tok)
		}
		w, err := c.Decode(tok[:colon])
		if err != nil {
			return zero, err
		}
		if tok[colon+1:] == "t" {
			return core.Edge[T]{W: w, N: nil}, nil
		}
		id, err := strconv.Atoi(tok[colon+1:])
		if err != nil || id < 0 || id >= len(edges) {
			return zero, fmt.Errorf("ddio: reference to undefined node in %q", tok)
		}
		if levels[id] >= parentLevel {
			return zero, fmt.Errorf("ddio: child %d at level %d not below parent level %d",
				id, levels[id], parentLevel)
		}
		return m.Scale(edges[id], w), nil
	}
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "n":
			if len(fields) < 5 {
				return zero, 0, meta, fmt.Errorf("ddio: short node line %q", sc.Text())
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil || id != len(edges) {
				return zero, 0, meta, fmt.Errorf("ddio: nodes must be numbered consecutively without duplicates (got %q, want %d)", fields[1], len(edges))
			}
			if id >= lim.MaxNodes {
				return zero, 0, meta, fmt.Errorf("ddio: node count exceeds cap %d", lim.MaxNodes)
			}
			level, err := strconv.Atoi(fields[2])
			if err != nil || level < 1 {
				return zero, 0, meta, fmt.Errorf("ddio: bad level %q", fields[2])
			}
			if level > qubits {
				return zero, 0, meta, fmt.Errorf("ddio: node %d at level %d exceeds the %d-qubit header", id, level, qubits)
			}
			kids := fields[3:]
			if len(kids) != core.VectorArity && len(kids) != core.MatrixArity {
				return zero, 0, meta, fmt.Errorf("ddio: node %d has %d children", id, len(kids))
			}
			if arity == 0 {
				arity = len(kids)
			} else if len(kids) != arity {
				return zero, 0, meta, fmt.Errorf("ddio: node %d has arity %d, diagram started with arity %d", id, len(kids), arity)
			}
			es := make([]core.Edge[T], len(kids))
			for i, tok := range kids {
				es[i], err = parseEdge(tok, level)
				if err != nil {
					return zero, 0, meta, err
				}
			}
			edges = append(edges, m.MakeNode(level, es))
			levels = append(levels, level)
		case "root":
			if len(fields) != 2 {
				return zero, 0, meta, fmt.Errorf("ddio: bad root line %q", sc.Text())
			}
			root, err := parseEdge(fields[1], qubits+1)
			if err != nil {
				return zero, 0, meta, err
			}
			return root, qubits, meta, nil
		default:
			return zero, 0, meta, fmt.Errorf("ddio: unknown record %q", fields[0])
		}
	}
	if e := scanErr(); e != nil {
		return zero, 0, meta, e
	}
	return zero, 0, meta, fmt.Errorf("ddio: missing root record")
}
