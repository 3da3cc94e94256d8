package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/num"
	"repro/internal/sim"
)

// TestTableLayoutGolden pins where the unique and intern tables place their
// entries after lowered Grover-8 at ε = 1e-10, and again after a Prune to the
// final state re-interns the survivors. Under ε > 0 the first weight interned
// in a tolerance class becomes its representative and Prune re-interns in
// forEach order, so slot placement is part of every later float result: a
// change to the start index, the probe sequence, the growth threshold or the
// rehash order in grow must fail here.
func TestTableLayoutGolden(t *testing.T) {
	m := core.NewManager[complex128](num.NewRing(1e-10), core.NormLeft)
	c := loweredGrover8(t, 37)
	s := sim.New(m, c.N)
	if err := s.Run(c, nil); err != nil {
		t.Fatal(err)
	}
	check := func(when, wantUnique, wantIntern string) {
		t.Helper()
		u, w := core.TableLayout(m)
		if u != wantUnique || w != wantIntern {
			t.Errorf("%s: unique layout %s, intern layout %s; want %s and %s", when, u, w, wantUnique, wantIntern)
		}
	}
	check("after the run",
		"d7767f3432197c469e955fed3c70f1b34d90e62a9150be3c464291aca4c45e8b",
		"3ff01429dfecbf7b2b44f3dd9c6a38e6a3daf381ec8f47fbf59b2579c6d9eea3")
	m.Prune(s.State)
	check("after Prune",
		"c18d5767de6f4a1737456bf9c2618b78ffaebffaaa2c67c5b77cf1823d80864b",
		"7e91a31a1eb274e1a0a9a7bb8b1b691d09da87cffe8303dce1292f3f05f0aa36")
}

// tagRing is the float ring with a chosen mixed hash per weight (keyed by
// its real part) and an Equal that counts its calls and always answers
// true: any Equal the intern table makes on two distinct weights merges
// them, so distinct WIDs show it made none.
type tagRing struct {
	*num.Ring
	mixed  map[float64]uint64
	equals *int
}

// Hash returns the preimage of the chosen hash under mix64, so the manager's
// mixed hash is exactly mixed[real(w)].
func (r tagRing) Hash(w complex128) uint64 { return unmix64(r.mixed[real(w)]) }

func (r tagRing) Equal(a, b complex128) bool {
	*r.equals++
	return true
}

// unmix64 inverts core's SplitMix64 finalizer.
func unmix64(x uint64) uint64 {
	inv := func(c uint64) uint64 { // c⁻¹ mod 2⁶⁴ by Newton's iteration
		y := c
		for i := 0; i < 6; i++ {
			y *= 2 - c*y
		}
		return y
	}
	x ^= x>>31 ^ x>>62
	x *= inv(0x94d049bb133111eb)
	x ^= x>>27 ^ x>>54
	x *= inv(0xbf58476d1ce4e5b9)
	x ^= x>>30 ^ x>>60
	return x
}

// TestInternTagPath drives the intern table's slot tags (the high 32 bits of
// a weight's mixed hash) through a fresh manager, whose shards have 16 slots.
func TestInternTagPath(t *testing.T) {
	equals := 0
	r := tagRing{Ring: num.NewRing(0), equals: &equals, mixed: map[float64]uint64{
		// Same tag, same start slot (1), different full hashes.
		1: 0xaaaa_bbbb_0000_0001,
		2: 0xaaaa_bbbb_0001_0001,
		// Same shard and start slot (5), different tags.
		3: 0x1111_1111_0000_0005,
		4: 0x1222_2222_0000_0005,
	}}
	m := core.NewManager[complex128](r, core.NormLeft)
	wid := func(re float64) uint32 { return m.WID(complex(re, 0)) }

	// A WID is (local<<4 | shard)+1: both pairs land in one shard (0xa and
	// 0x1, the hashes' top 4 bits), so each second weight probes the first's
	// slot.
	w1, w2 := wid(1), wid(2)
	if w1 != 0<<4|0xa+1 || w2 != 1<<4|0xa+1 || equals != 0 {
		t.Fatalf("same tag, different hashes: WIDs %d and %d after %d Equal calls; want 11 and 27 after 0", w1, w2, equals)
	}
	// A repeat compares the one slot whose full hash matches, past the other.
	if got := wid(2); got != w2 || equals != 1 {
		t.Fatalf("repeat of the second weight: WID %d after %d Equal calls; want %d after 1", got, equals, w2)
	}
	if got := wid(1); got != w1 || equals != 2 {
		t.Fatalf("repeat of the first weight: WID %d after %d Equal calls; want %d after 2", got, equals, w1)
	}

	equals = 0
	w3, w4 := wid(3), wid(4)
	if w3 != 0<<4|0x1+1 || w4 != 1<<4|0x1+1 || equals != 0 {
		t.Fatalf("different tags, one start slot: WIDs %d and %d after %d Equal calls; want 2 and 18 after 0", w3, w4, equals)
	}
	if got := wid(4); got != w4 || equals != 1 {
		t.Fatalf("repeat behind a different tag: WID %d after %d Equal calls; want %d after 1", got, equals, w4)
	}
}
