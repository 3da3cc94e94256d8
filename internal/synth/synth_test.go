package synth

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/dense"
	"repro/internal/su2"
)

func TestWordQuatMatchesGeneratorProducts(t *testing.T) {
	// H² = I, T⁸ = I (projectively).
	if d := Word("HH").Quat().Dist(su2.Identity); d > 1e-7 {
		t.Fatalf("H² ≠ I: %v", d)
	}
	if d := Word("TTTTTTTT").Quat().Dist(su2.Identity); d > 1e-7 {
		t.Fatalf("T⁸ ≠ I: %v", d)
	}
	// HTH ≠ TH T etc. — just check non-triviality.
	if d := Word("HT").Quat().Dist(su2.Identity); d < 0.1 {
		t.Fatalf("HT suspiciously close to identity: %v", d)
	}
}

func TestWordDagger(t *testing.T) {
	r := rand.New(rand.NewSource(90))
	letters := []byte{'H', 'T'}
	for i := 0; i < 50; i++ {
		w := make(Word, r.Intn(12)+1)
		for j := range w {
			w[j] = letters[r.Intn(2)]
		}
		prod := w.Quat().Mul(w.Dagger().Quat())
		if d := prod.Dist(su2.Identity); d > 1e-7 {
			t.Fatalf("w·w† ≠ I for %s: %v", w, d)
		}
	}
}

func TestWordGatesMatchQuat(t *testing.T) {
	// Lowering to named gates and simulating densely reproduces the word's
	// unitary up to global phase.
	words := []Word{Word("HT"), Word("TTH"), Word("HTTTTTH"), Word("TTTTTTTH"), Word("HTTHTTTHH")}
	for _, w := range words {
		gatesList := w.Gates(0)
		c := circuit.New("w", 1)
		for _, g := range gatesList {
			c.Append(g)
		}
		// Apply to |0⟩ and |1⟩ to recover the full matrix columns.
		var m [2][2]complex128
		for col := 0; col < 2; col++ {
			s := dense.New(1)
			if col == 1 {
				s.Amp[0], s.Amp[1] = 0, 1
			}
			if err := s.Run(c); err != nil {
				t.Fatal(err)
			}
			m[0][col], m[1][col] = s.Amp[0], s.Amp[1]
		}
		if d := su2.FromU2(m).Dist(w.Quat()); d > 1e-7 {
			t.Fatalf("gate lowering of %s distance %v", w, d)
		}
	}
}

func TestNetGrowsAndDeduplicates(t *testing.T) {
	s4 := New(4)
	s8 := New(8)
	if len(s4.net) >= len(s8.net) {
		t.Fatalf("net did not grow: %d vs %d", len(s4.net), len(s8.net))
	}
	// H² = I must have been deduplicated: net size is far below 2^maxLen
	// would not hold for tiny maxLen, but duplicates like HH ≡ "" must not
	// appear. Count identity entries:
	ids := 0
	for _, e := range s8.net {
		if e.q.Dist(su2.Identity) < 1e-9 {
			ids++
		}
	}
	if ids != 1 {
		t.Fatalf("net contains %d identity elements, want 1", ids)
	}
}

func TestBaseApproxQuality(t *testing.T) {
	s := New(12)
	r := rand.New(rand.NewSource(91))
	worst := 0.0
	for i := 0; i < 40; i++ {
		theta := r.Float64()*2*math.Pi - math.Pi
		target := su2.RotZ(theta)
		w := s.BaseApprox(target)
		if d := w.Quat().Dist(target); d > worst {
			worst = d
		}
	}
	// The length-12 net is a crude but real ε₀-net.
	if worst > 0.5 {
		t.Fatalf("base approximation too poor: worst distance %v", worst)
	}
}

func TestCommutatorFactors(t *testing.T) {
	r := rand.New(rand.NewSource(92))
	for i := 0; i < 100; i++ {
		axis := [3]float64{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
		n := math.Sqrt(axis[0]*axis[0] + axis[1]*axis[1] + axis[2]*axis[2])
		if n < 1e-3 {
			continue
		}
		for j := range axis {
			axis[j] /= n
		}
		delta := su2.FromAxisAngle(axis, r.Float64()*0.8+1e-3)
		v, w := commutatorFactors(delta)
		c := v.Mul(w).Mul(v.Conj()).Mul(w.Conj())
		if d := c.Dist(delta); d > 1e-6 {
			t.Fatalf("commutator reconstruction error %v for delta angle %v", d, delta.Angle())
		}
		// Balanced: both factors have the same rotation angle.
		if math.Abs(v.Angle()-w.Angle()) > 1e-9 {
			t.Fatalf("unbalanced factors: %v vs %v", v.Angle(), w.Angle())
		}
	}
}

func TestSKImprovesWithDepth(t *testing.T) {
	s := New(11)
	angles := []float64{0.3, 1.1, -0.7, 2.3}
	for _, theta := range angles {
		target := su2.RotZ(theta)
		d0 := s.Approx(target, 0).Quat().Dist(target)
		d1 := s.Approx(target, 1).Quat().Dist(target)
		d2 := s.Approx(target, 2).Quat().Dist(target)
		if d1 > d0*1.05 || d2 > d1*1.05 {
			t.Fatalf("SK did not improve for θ=%v: %v → %v → %v", theta, d0, d1, d2)
		}
		if d2 > 0.2 {
			t.Fatalf("depth-2 error still large for θ=%v: %v", theta, d2)
		}
	}
}

func TestSKSequencesGrow(t *testing.T) {
	s := New(11)
	target := su2.RotZ(0.923)
	l0 := len(s.Approx(target, 0))
	l2 := len(s.Approx(target, 2))
	if l2 <= l0 {
		t.Fatalf("SK sequences did not grow: %d vs %d", l0, l2)
	}
}

func TestRzGatesEndToEnd(t *testing.T) {
	s := New(11)
	theta := 0.41
	gatesList, reported := s.RzGates(theta, 0, 2)
	c := circuit.New("rz", 1)
	for _, g := range gatesList {
		c.Append(g)
	}
	var m [2][2]complex128
	for col := 0; col < 2; col++ {
		st := dense.New(1)
		if col == 1 {
			st.Amp[0], st.Amp[1] = 0, 1
		}
		if err := st.Run(c); err != nil {
			t.Fatal(err)
		}
		m[0][col], m[1][col] = st.Amp[0], st.Amp[1]
	}
	got := su2.FromU2(m)
	want := su2.RotZ(theta)
	d := got.Dist(want)
	if math.Abs(d-reported) > 1e-6 {
		t.Fatalf("reported error %v but measured %v", reported, d)
	}
	if d > 0.2 {
		t.Fatalf("Rz approximation too poor: %v", d)
	}
	// Output must be pure Clifford+T.
	for _, g := range gatesList {
		switch g.Name {
		case "h", "t", "tdg", "s", "sdg", "z":
		default:
			t.Fatalf("non-Clifford+T gate %q emitted", g.Name)
		}
	}
	_ = cmplx.Abs
}

func TestSimplify(t *testing.T) {
	cases := []struct{ in, want string }{
		{"HH", ""},
		{"HHH", "H"},
		{"TTTTTTTT", ""},
		{"HTTTTTTTTH", ""},
		{"THHT", "TT"},
		{"HTHT", "HTHT"},
		{"HHTTTTTTTTHH", ""},
	}
	for _, c := range cases {
		if got := Word(c.in).Simplify(); string(got) != c.want {
			t.Fatalf("Simplify(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	// Simplification preserves the projective unitary on random words.
	r := rand.New(rand.NewSource(102))
	letters := []byte{'H', 'T'}
	for i := 0; i < 50; i++ {
		w := make(Word, r.Intn(40)+1)
		for j := range w {
			w[j] = letters[r.Intn(2)]
		}
		s := w.Simplify()
		if len(s) > len(w) {
			t.Fatalf("Simplify grew %q to %q", w, s)
		}
		if d := s.Quat().Dist(w.Quat()); d > 1e-7 {
			t.Fatalf("Simplify changed the unitary of %q: %v", w, d)
		}
	}
}
