package circuit

import "testing"

// TestChainFinalLinkIsFingerprint pins the back-compat identity the prefix
// subsystem rests on: Chain(c)[i] is the fingerprint of the i-gate prefix,
// and the last link is the whole-circuit Fingerprint.
func TestChainFinalLinkIsFingerprint(t *testing.T) {
	c := New("ghz+", 3).H(0).CX(0, 1).CX(1, 2).T(2).Append(Gate{Name: "rz", Target: 0, Params: []float64{0.25}})
	links := Chain(c)
	if len(links) != c.Len()+1 {
		t.Fatalf("chain has %d links, want %d", len(links), c.Len()+1)
	}
	for i := 0; i <= c.Len(); i++ {
		prefix := &Circuit{Name: "prefix", N: c.N, Cbits: c.Cbits, Gates: c.Gates[:i]}
		if links[i] != Fingerprint(prefix) {
			t.Errorf("link %d is not the fingerprint of the %d-gate prefix", i, i)
		}
	}
}

// TestChainGateEditInvalidatesSuffix is the incremental-invalidation
// property: editing gate j changes exactly the links past j — everything
// before the edit stays a valid checkpoint key, everything after is
// invalidated.
func TestChainGateEditInvalidatesSuffix(t *testing.T) {
	build := func() *Circuit {
		return New("base", 3).H(0).CX(0, 1).T(1).CX(1, 2).S(2).H(2)
	}
	base := Chain(build())
	for j := 0; j < build().Len(); j++ {
		edited := build()
		edited.Gates[j] = Gate{Name: "z", Target: edited.Gates[j].Target}
		got := Chain(edited)
		for i := 0; i <= j; i++ {
			if got[i] != base[i] {
				t.Errorf("edit at gate %d changed link %d before the edit", j, i)
			}
		}
		for i := j + 1; i < len(got); i++ {
			if got[i] == base[i] {
				t.Errorf("edit at gate %d left link %d unchanged", j, i)
			}
		}
	}
}

// TestChainExtensionSharesLinks: a circuit and any extension of it produce
// identical links over the shared prefix — the property that lets one
// circuit's checkpoint warm-start another.
func TestChainExtensionSharesLinks(t *testing.T) {
	a := New("a", 2).H(0).CX(0, 1)
	b := New("b", 2).H(0).CX(0, 1).T(0).S(1).CX(1, 0)
	ca, cb := Chain(a), Chain(b)
	for i := range ca {
		if ca[i] != cb[i] {
			t.Errorf("link %d differs between a circuit and its extension", i)
		}
	}
	if got := SharedPrefixLen(a, b); got != a.Len() {
		t.Errorf("SharedPrefixLen = %d, want %d", got, a.Len())
	}
}

func TestSharedPrefixLen(t *testing.T) {
	ghz := func() *Circuit { return New("g", 3).H(0).CX(0, 1).CX(1, 2) }
	cases := []struct {
		name  string
		circs []*Circuit
		want  int
	}{
		{"none", nil, 0},
		{"single", []*Circuit{ghz()}, 3},
		{"identical", []*Circuit{ghz(), ghz()}, 3},
		{"diverge at 2", []*Circuit{ghz(), New("g", 3).H(0).CX(0, 1).T(2)}, 2},
		{"diverge at 0", []*Circuit{ghz(), New("g", 3).X(0).CX(0, 1).CX(1, 2)}, 0},
		{"different width", []*Circuit{ghz(), New("g", 4).H(0).CX(0, 1).CX(1, 2)}, 0},
		{"three-way", []*Circuit{
			ghz().T(0),
			ghz().S(0),
			ghz().T(0).T(1),
		}, 3},
		{"shorter member clamps", []*Circuit{ghz(), New("g", 3).H(0)}, 1},
	}
	for _, tc := range cases {
		if got := SharedPrefixLen(tc.circs...); got != tc.want {
			t.Errorf("%s: SharedPrefixLen = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestUnitaryPrefixLen(t *testing.T) {
	unitary := New("u", 2).H(0).CX(0, 1)
	if got := unitary.UnitaryPrefixLen(); got != 2 {
		t.Errorf("fully unitary circuit: UnitaryPrefixLen = %d, want 2", got)
	}
	measured := New("m", 2).H(0).Append(Gate{Name: OpMeasure, Target: 0, Clbit: 0}).CX(0, 1)
	if got := measured.UnitaryPrefixLen(); got != 1 {
		t.Errorf("mid-circuit measure: UnitaryPrefixLen = %d, want 1", got)
	}
	reset := New("r", 2).H(0).CX(0, 1).Append(Gate{Name: OpReset, Target: 0})
	if got := reset.UnitaryPrefixLen(); got != 2 {
		t.Errorf("trailing reset: UnitaryPrefixLen = %d, want 2", got)
	}
	cond := New("c", 2).H(0).Append(Gate{Name: OpMeasure, Target: 0, Clbit: 0}).Append(Gate{
		Name: "x", Target: 1, Cond: &Cond{Offset: 0, Width: 1, Value: 1},
	})
	if got := cond.UnitaryPrefixLen(); got != 1 {
		t.Errorf("conditioned gate: UnitaryPrefixLen = %d, want 1", got)
	}
}

// TestPrefixHasherCloneForks: a clone taken after the shared base continues
// the chain from there, independently of the original and of other clones,
// so base-then-clone links equal each full circuit's own Chain.
func TestPrefixHasherCloneForks(t *testing.T) {
	base := New("base", 3).H(0).CX(0, 1).T(1)
	suffixes := [][]Gate{
		New("s0", 3).S(2).H(2).Gates,
		New("s1", 3).CX(1, 2).Gates,
		nil,
	}
	p := NewPrefixHasher(base.N, base.Cbits)
	links := p.Extend([]Digest{p.Link()}, base.Gates)
	clones := make([]*PrefixHasher, len(suffixes))
	for i := range suffixes {
		clones[i] = p.Clone()
	}
	for i, sfx := range suffixes {
		full := &Circuit{Name: "v", N: base.N, Gates: append(append([]Gate{}, base.Gates...), sfx...)}
		got := clones[i].Extend(append([]Digest{}, links...), sfx)
		want := Chain(full)
		if len(got) != len(want) || clones[i].k != full.Len() {
			t.Fatalf("suffix %d: %d links at position %d, want %d at %d", i, len(got), clones[i].k, len(want), full.Len())
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("suffix %d: link %d differs from Chain", i, k)
			}
		}
	}
	if p.Link() != links[len(links)-1] || p.k != base.Len() {
		t.Fatal("extending the clones moved the original chain")
	}
}
