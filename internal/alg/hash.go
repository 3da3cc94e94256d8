package alg

import "math/big"

// Structural hashing for the QMDD core's weight tables (coeff.Ring.Hash). The core
// hashes an edge weight on every weight-intern lookup — i.e. on every node
// creation and every memoized Add — so these walk big.Int limbs directly
// instead of formatting the canonical Key strings (D.Key alone runs
// fmt.Sprintf over four big.Int.Text(36) calls, which used to dominate the
// hot path of the reproduction).
//
// All three types keep canonical representations (see CanonD, canonQ), so
// structural hashing is value hashing: Equal values hash equally.

const (
	hashOffset uint64 = 14695981039346656037
	hashPrime  uint64 = 1099511628211
)

func hashWord(h, w uint64) uint64 { return (h ^ w) * hashPrime }

// hashInt folds sign, limb count and limbs of x into h. big.Int stores a
// canonical limb slice (no leading zero words), so equal values fold equally.
func hashInt(h uint64, x *big.Int) uint64 {
	h = hashWord(h, uint64(x.Sign()+2))
	bits := x.Bits()
	h = hashWord(h, uint64(len(bits)))
	for _, w := range bits {
		h = hashWord(h, uint64(w))
	}
	return h
}

// Hash returns a 64-bit structural hash of z.
func (z Zomega) Hash() uint64 { return z.hash(hashOffset) }

func (z Zomega) hash(h uint64) uint64 {
	h = hashInt(h, z.A)
	h = hashInt(h, z.B)
	h = hashInt(h, z.C)
	return hashInt(h, z.D)
}

// Hash returns a 64-bit hash of the canonical representation of d; because
// that representation is unique, Hash is consistent with Equal.
func (d D) Hash() uint64 { return d.hash(hashOffset) }

func (d D) hash(h uint64) uint64 {
	return hashWord(d.W.hash(h), uint64(int64(d.K)))
}

// Hash returns a 64-bit hash of the canonical representation of q.
func (q Q) Hash() uint64 { return hashInt(q.N.hash(hashOffset), q.E) }

// Hash is coeff.Ring's weight hash for the QMDD core: weights are hashed
// limb-by-limb, never via Key strings.
func (Ring) Hash(a Q) uint64 { return a.Hash() }
