package circuit

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
)

// Digest is a prefix-chain link / circuit fingerprint: a SHA-256 value.
type Digest = [sha256.Size]byte

// PrefixHasher computes the incremental prefix-hash chain of a circuit:
//
//	H₀ = hash(domain ‖ qubits ‖ cbits)          — the header link
//	Hᵢ = hash-state after absorbing ops 1…i      — one link per gate
//
// Each link is a content address for "the first i ops of any circuit over
// these registers": two circuits that agree on their first i ops — however
// they were formatted, whatever their registers were called, and regardless
// of how many MORE ops either goes on to apply — produce the same Hᵢ. That
// last property is what makes the chain usable for prefix-state
// checkpointing: a state cached under Hᵢ by one circuit warm-starts every
// other circuit that extends the same prefix.
//
// The encoding is self-delimiting (length-prefixed strings and lists,
// fixed-width integers), so dropping the explicit gate count from the v2
// schema loses no injectivity: no op-sequence boundary is ambiguous, hence
// no two distinct prefixes collide except by SHA-256 collision.
//
// The final link — after absorbing every op — IS the whole-circuit
// Fingerprint. Every existing qcache identity therefore remains a chain
// key: a full-circuit state cached under Fingerprint(c) is exactly the
// prefix checkpoint H_len(c) for any extension of c.
//
// Each op's encoding is built in a reusable buffer and written to the hash
// in one call, so absorbing an op allocates nothing once the buffers have
// grown to the widest op.
type PrefixHasher struct {
	h     hasher
	k     int
	enc   []byte // the encoding being built
	sum   Digest // Link's output buffer
	ctrls []Control
}

// hasher is the subset of sha256's digest the chain needs. Its Sum appends
// to its argument without mutating internal state, which is what lets Link
// snapshot every intermediate chain link from one running hash; its binary
// state is what lets Clone fork the chain.
type hasher interface {
	Write(p []byte) (int, error)
	Sum(b []byte) []byte
	MarshalBinary() ([]byte, error)
	UnmarshalBinary(b []byte) error
}

// NewPrefixHasher starts a chain for circuits over `qubits` qubits and
// `cbits` classical bits. The returned hasher is positioned at H₀.
func NewPrefixHasher(qubits, cbits int) *PrefixHasher {
	p := newPrefixHasher()
	p.putStr("qmdd-circuit-v3") // domain separator / schema version
	p.putInt(qubits)
	p.putInt(cbits)
	p.flush()
	return p
}

func newPrefixHasher() *PrefixHasher {
	return &PrefixHasher{h: sha256.New().(hasher), enc: make([]byte, 0, 128), ctrls: make([]Control, 0, 4)}
}

// Clone returns an independent copy of the chain at its current position
// Hᵢ: absorbing into either continues from Hᵢ without touching the other.
// A base+suffixes batch absorbs its shared base once and clones the result
// for each suffix.
func (p *PrefixHasher) Clone() *PrefixHasher {
	state, err := p.h.MarshalBinary()
	if err != nil {
		panic(fmt.Sprintf("circuit: saving the chain hash: %v", err))
	}
	q := newPrefixHasher()
	if err := q.h.UnmarshalBinary(state); err != nil {
		panic(fmt.Sprintf("circuit: restoring the chain hash: %v", err))
	}
	q.k = p.k
	return q
}

func (p *PrefixHasher) putU64(v uint64) { p.enc = binary.LittleEndian.AppendUint64(p.enc, v) }

func (p *PrefixHasher) putInt(v int) { p.putU64(uint64(int64(v))) }

func (p *PrefixHasher) putStr(s string) {
	p.putInt(len(s))
	p.enc = append(p.enc, s...)
}

// flush writes the buffered encoding to the hash.
func (p *PrefixHasher) flush() {
	p.h.Write(p.enc)
	p.enc = p.enc[:0]
}

// Absorb folds one op into the chain, advancing Hᵢ to Hᵢ₊₁. The encoding
// is the canonical semantic form shared with Fingerprint: base-op name,
// target, controls in sorted order (a gate fires when all controls are
// satisfied, regardless of listing order), exact IEEE-754 parameter bits
// (no tolerance — two circuits that could simulate differently never
// collide), the measurement destination for measure ops, and the classical
// condition if present.
func (p *PrefixHasher) Absorb(g Gate) {
	p.putStr(g.Name)
	p.putInt(g.Target)
	p.ctrls = sortControls(append(p.ctrls[:0], g.Controls...))
	p.putInt(len(p.ctrls))
	for _, ct := range p.ctrls {
		p.putInt(ct.Qubit)
		if ct.Neg {
			p.putInt(1)
		} else {
			p.putInt(0)
		}
	}
	p.putInt(len(g.Params))
	for _, prm := range g.Params {
		p.putU64(math.Float64bits(prm))
	}
	if g.IsMeasure() {
		p.putInt(g.Clbit)
	}
	if g.Cond != nil {
		p.putInt(1)
		p.putInt(g.Cond.Offset)
		p.putInt(g.Cond.Width)
		p.putU64(g.Cond.Value)
	} else {
		p.putInt(0)
	}
	p.flush()
	p.k++
}

// sortControls orders cs by qubit in place with an insertion sort (control
// lists are short). Distinct qubits have one sorted order; a repeated qubit
// keeps its listing order, as under sort.Slice, which insertion-sorts lists
// of up to 12 elements.
func sortControls(cs []Control) []Control {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].Qubit < cs[j-1].Qubit; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
	return cs
}

// Link returns the current chain link Hᵢ without disturbing the chain:
// further Absorb calls continue from the same position.
func (p *PrefixHasher) Link() Digest {
	p.h.Sum(p.sum[:0])
	return p.sum
}

// Extend absorbs gates in order, appending the link after each one to
// links, and returns the extended slice.
func (p *PrefixHasher) Extend(links []Digest, gates []Gate) []Digest {
	for _, g := range gates {
		p.Absorb(g)
		links = append(links, p.Link())
	}
	return links
}

// Chain returns all n+1 links H₀ … Hₙ of the circuit's prefix-hash chain.
// Chain(c)[i] keys the state after the first i ops; Chain(c)[len(c.Gates)]
// equals Fingerprint(c).
func Chain(c *Circuit) []Digest {
	links := make([]Digest, 0, len(c.Gates)+1)
	p := NewPrefixHasher(c.N, c.Cbits)
	return p.Extend(append(links, p.Link()), c.Gates)
}

// SharedPrefixLen returns the length of the longest common gate prefix of
// the given circuits (0 when they disagree on register shape). It compares
// chain links, so it is exactly the "how far do these variants share
// checkpoint keys" question.
func SharedPrefixLen(circs ...*Circuit) int {
	chains := make([][]Digest, len(circs))
	for i, c := range circs {
		chains[i] = Chain(c)
	}
	return SharedChainLen(chains...)
}

// SharedChainLen is SharedPrefixLen over chains already computed: the
// largest k at which every chain has the same link H_k (0 when none has
// a gate in common, or there are no chains).
func SharedChainLen(chains ...[]Digest) int {
	if len(chains) == 0 {
		return 0
	}
	k := len(chains[0]) - 1
	for _, ch := range chains[1:] {
		if len(ch)-1 < k {
			k = len(ch) - 1
		}
	}
	for ; k > 0; k-- {
		same := true
		for _, ch := range chains[1:] {
			if ch[k] != chains[0][k] {
				same = false
				break
			}
		}
		if same {
			break
		}
	}
	return k
}

// UnitaryPrefixLen returns the number of leading unconditional unitary ops:
// the longest prefix whose state is reached without measurement, reset or
// classical control. Only links H₀ … H_UnitaryPrefixLen are sound
// checkpoint keys — a state captured past that point depends on random
// outcomes and must never be stored or resumed.
func (c *Circuit) UnitaryPrefixLen() int {
	for i, g := range c.Gates {
		if !g.IsUnitary() {
			return i
		}
	}
	return len(c.Gates)
}

// Fingerprint returns a SHA-256 digest of the circuit's semantic content:
// the register shape and the ordered op list (base-operation name, target,
// sorted controls, exact parameter bits, measure destinations, classical
// conditions). Everything presentational is excluded — the circuit name,
// how the source was formatted, what the registers were called — so two
// parses of semantically identical programs collide and the digest can
// serve as a content address for cached simulation results.
//
// Fingerprint(c) is definitionally the final link of c's prefix-hash
// chain (see PrefixHasher): Chain(c)[c.Len()] == Fingerprint(c).
func Fingerprint(c *Circuit) Digest {
	p := NewPrefixHasher(c.N, c.Cbits)
	for _, g := range c.Gates {
		p.Absorb(g)
	}
	return p.Link()
}
