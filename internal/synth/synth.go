// Package synth compiles arbitrary single-qubit rotations into Clifford+T
// gate sequences. It stands in for the Quipper pipeline the paper uses to
// prepare the GSE benchmark: a breadth-first ε₀-net over words in ⟨H, T⟩
// provides base approximations, and the Solovay–Kitaev recursion (balanced
// group commutators, Dawson–Nielsen construction) drives the error down at
// the cost of rapidly growing sequence length — producing exactly the long
// Clifford+T streams whose D[ω] coefficients grow in bit width.
package synth

import (
	"math"
	"sort"

	"repro/internal/circuit"
	"repro/internal/su2"
)

// Word is a Clifford+T sequence over the generators H and T, applied
// left-to-right (circuit order). Its unitary is the right-to-left matrix
// product.
type Word []byte

// Quat returns the projective unitary of the word.
func (w Word) Quat() su2.Quat {
	q := su2.Identity
	for _, g := range w {
		// Circuit order: each successive gate multiplies from the left.
		q = gen(g).Mul(q)
	}
	return q.Normalize()
}

// gen returns the generator quaternion.
func gen(g byte) su2.Quat {
	switch g {
	case 'H':
		s := 1 / math.Sqrt2
		return su2.Quat{W: 0, X: -s, Y: 0, Z: -s}
	case 'T':
		return su2.RotZ(math.Pi / 4)
	}
	panic("synth: unknown generator")
}

// Dagger returns the inverse word (H is self-inverse, T⁻¹ = T⁷).
func (w Word) Dagger() Word {
	var out Word
	for i := len(w) - 1; i >= 0; i-- {
		switch w[i] {
		case 'H':
			out = append(out, 'H')
		case 'T':
			out = append(out, 'T', 'T', 'T', 'T', 'T', 'T', 'T')
		}
	}
	return out
}

// Gates lowers the word to circuit gates on the given qubit, compressing
// runs of T into the named phase gates (T, S, Z and their adjoints).
func (w Word) Gates(target int) []circuit.Gate {
	var out []circuit.Gate
	emit := func(name string) {
		out = append(out, circuit.Gate{Name: name, Target: target})
	}
	i := 0
	for i < len(w) {
		if w[i] == 'H' {
			emit("h")
			i++
			continue
		}
		run := 0
		for i < len(w) && w[i] == 'T' {
			run++
			i++
		}
		switch run % 8 {
		case 1:
			emit("t")
		case 2:
			emit("s")
		case 3:
			emit("s")
			emit("t")
		case 4:
			emit("z")
		case 5:
			emit("z")
			emit("t")
		case 6:
			emit("sdg")
		case 7:
			emit("tdg")
		}
	}
	return out
}

// Simplify cancels adjacent H pairs and reduces T runs modulo 8, iterating
// to a fixed point. The result is the same projective unitary with a
// shorter (never longer) word — useful after Solovay–Kitaev, whose
// concatenations produce many trivial cancellations at the seams.
func (w Word) Simplify() Word {
	cur := w
	for {
		var out Word
		i := 0
		for i < len(cur) {
			switch {
			case cur[i] == 'H':
				run := 0
				for i < len(cur) && cur[i] == 'H' {
					run++
					i++
				}
				if run%2 == 1 {
					out = append(out, 'H')
				}
			default: // 'T'
				run := 0
				for i < len(cur) && cur[i] == 'T' {
					run++
					i++
				}
				for j := 0; j < run%8; j++ {
					out = append(out, 'T')
				}
			}
		}
		if len(out) == len(cur) {
			return out
		}
		cur = out
	}
}

type entry struct {
	q su2.Quat
	w Word
}

// Synth holds the base ε₀-net and answers approximation queries.
type Synth struct {
	net []entry
}

// fingerprint quantizes a canonical quaternion for deduplication.
func fingerprint(q su2.Quat) [4]int64 {
	c := q.Canonical()
	const scale = 1e9
	return [4]int64{
		int64(math.Round(c.W * scale)),
		int64(math.Round(c.X * scale)),
		int64(math.Round(c.Y * scale)),
		int64(math.Round(c.Z * scale)),
	}
}

// New builds the base net from all distinct ⟨H, T⟩ group elements reachable
// by words of at most maxLen generators (maxLen ≈ 10–16 is practical; the
// net size grows roughly exponentially in maxLen).
func New(maxLen int) *Synth {
	s := &Synth{}
	seen := map[[4]int64]struct{}{}
	type node struct {
		q su2.Quat
		w Word
	}
	frontier := []node{{q: su2.Identity, w: Word{}}}
	add := func(n node) bool {
		fp := fingerprint(n.q)
		if _, ok := seen[fp]; ok {
			return false
		}
		seen[fp] = struct{}{}
		s.net = append(s.net, entry{q: n.q, w: n.w})
		return true
	}
	add(frontier[0])
	for depth := 0; depth < maxLen; depth++ {
		var next []node
		for _, f := range frontier {
			for _, g := range []byte{'H', 'T'} {
				w := make(Word, len(f.w), len(f.w)+1)
				copy(w, f.w)
				w = append(w, g)
				n := node{q: gen(g).Mul(f.q).Normalize(), w: w}
				if add(n) {
					next = append(next, n)
				}
			}
		}
		frontier = next
	}
	// Deterministic order (useful for tests and reproducibility).
	sort.Slice(s.net, func(i, j int) bool {
		if len(s.net[i].w) != len(s.net[j].w) {
			return len(s.net[i].w) < len(s.net[j].w)
		}
		return string(s.net[i].w) < string(s.net[j].w)
	})
	return s
}

// BaseApprox returns the net element closest to u.
func (s *Synth) BaseApprox(u su2.Quat) Word {
	best, bestDot := 0, -1.0
	for i := range s.net {
		if d := math.Abs(s.net[i].q.Dot(u)); d > bestDot {
			best, bestDot = i, d
		}
	}
	w := make(Word, len(s.net[best].w))
	copy(w, s.net[best].w)
	return w
}

// Approx runs the Solovay–Kitaev recursion to the given depth (depth 0 is
// the base net lookup). Typical error per depth: ε_{k+1} ≈ c·ε_k^{3/2}.
func (s *Synth) Approx(u su2.Quat, depth int) Word {
	if depth <= 0 {
		return s.BaseApprox(u)
	}
	wApprox := s.Approx(u, depth-1)
	uw := wApprox.Quat()
	// Δ = U · W†: the residual rotation still to be realized.
	delta := u.Mul(uw.Conj()).Normalize()
	v, w2 := commutatorFactors(delta)
	va := s.Approx(v, depth-1)
	wa := s.Approx(w2, depth-1)
	// Δ ≈ V W V† W†, so U ≈ V W V† W† · wApprox. In circuit (left-to-right)
	// order the first-applied factor comes first.
	out := make(Word, 0, len(wApprox)+2*len(va)+2*len(wa)+14)
	out = append(out, wApprox...)
	out = append(out, wa.Dagger()...)
	out = append(out, va.Dagger()...)
	out = append(out, wa...)
	out = append(out, va...)
	return out.Simplify()
}

// commutatorFactors implements the balanced group-commutator construction of
// Dawson–Nielsen: returns V, W with V·W·V†·W† = delta (up to numerical
// precision), where V and W are rotations by equal angles about axes
// conjugated from x̂ and ŷ.
func commutatorFactors(delta su2.Quat) (v, w su2.Quat) {
	theta := delta.Angle()
	if theta < 1e-14 {
		return su2.Identity, su2.Identity
	}
	phi := solveCommutatorAngle(theta)
	v0 := su2.RotX(phi)
	w0 := su2.RotY(phi)
	k := v0.Mul(w0).Mul(v0.Conj()).Mul(w0.Conj()).Normalize()
	// Align the commutator's axis with delta's axis.
	sAlign := su2.AlignAxes(k.Axis(), delta.Axis())
	v = sAlign.Mul(v0).Mul(sAlign.Conj()).Normalize()
	w = sAlign.Mul(w0).Mul(sAlign.Conj()).Normalize()
	// Axis alignment fixes the rotation axis but may land on the inverse
	// rotation sense; [W, V] = [V, W]⁻¹, so swapping the factors flips it.
	c1 := v.Mul(w).Mul(v.Conj()).Mul(w.Conj()).Normalize()
	c2 := w.Mul(v).Mul(w.Conj()).Mul(v.Conj()).Normalize()
	if c2.Dist(delta) < c1.Dist(delta) {
		v, w = w, v
	}
	return v, w
}

// solveCommutatorAngle finds φ with
// sin(θ/2) = 2 sin²(φ/2) √(1 − sin⁴(φ/2)) by bisection.
func solveCommutatorAngle(theta float64) float64 {
	target := math.Sin(theta / 2)
	f := func(phi float64) float64 {
		s2 := math.Sin(phi / 2)
		return 2 * s2 * s2 * math.Sqrt(1-s2*s2*s2*s2)
	}
	lo, hi := 0.0, math.Pi
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if f(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// RzGates approximates Rz(theta) on the given qubit to the given SK depth
// and returns the Clifford+T gate sequence together with the projective
// approximation error.
func (s *Synth) RzGates(theta float64, qubit, depth int) ([]circuit.Gate, float64) {
	target := su2.RotZ(theta)
	w := s.Approx(target, depth)
	return w.Gates(qubit), w.Quat().Dist(target)
}

// RyGates approximates Ry(theta).
func (s *Synth) RyGates(theta float64, qubit, depth int) ([]circuit.Gate, float64) {
	target := su2.RotY(theta)
	w := s.Approx(target, depth)
	return w.Gates(qubit), w.Quat().Dist(target)
}
