package core

import "repro/internal/coeff"

// scalarTable memoizes nontrivial edge-weight products and quotients for
// exact coefficient rings. Under Q[ω] a single Mul or Div costs microseconds
// of big-integer work, and within one simulation half or more of the operand
// pairs repeat (the same gate entries meet the same normalized weights over
// and over), so caching them pays; a float product costs nanoseconds and is
// never cached, which also keeps float results bit-identical.
//
// Like the compute table it is direct-mapped with overwrite on collision and
// a fixed size, striped into tableShardCount shards by the same slot scheme
// (hash.go). Its values are exact, so the layout never changes a result; it
// does fix which operand pairs evict each other, and with that the hit
// counts, and it lets each shard allocate its slots on first store. Slots
// are keyed by the operation and the coeff.Hasher hashes of both operands; a
// hit additionally checks both operands with Ring.Equal, so a hash collision
// costs a recomputation, never a wrong value.
// Prune clears the table, so nothing computed for one job outlives the
// engine's scrub between jobs. See DESIGN.md §5.1.1.

// scalarTableSize is the total slot count (a power of two, split evenly
// across the shards). About 2.6 MiB of slots for Q[ω] weights, allocated per
// shard on first use.
const scalarTableSize = 1 << 14

type scalarOp uint8

const (
	scalarFree scalarOp = iota
	scalarMul
	scalarDiv
)

type scalarEntry[T any] struct {
	op      scalarOp
	ha, hb  uint64
	a, b, r T
}

type scalarShard[T any] struct {
	entries []scalarEntry[T] // nil until the shard's first store

	lookups, hits uint64
}

// scalarArith is the edge-weight Mul/Div the core's hot paths call: the
// ring itself, or for exact rings the scalarTable in front of it. Either way
// a call is one interface dispatch, so float runs pay nothing for the memo.
type scalarArith[T any] interface {
	Mul(a, b T) T
	Div(a, b T) T
}

type scalarTable[T any] struct {
	r      coeff.Ring[T]
	hash   func(T) uint64 // the manager's coeff.Hasher hash
	shards [tableShardCount]scalarShard[T]
}

// scalarSlot mixes the operation and both operand hashes into a slot hash.
func scalarSlot(op scalarOp, ha, hb uint64) uint64 {
	return mix64(mix64(ha^uint64(op)<<56) ^ hb)
}

func (t *scalarTable[T]) get(op scalarOp, ha, hb uint64, a, b T) (T, bool) {
	h := scalarSlot(op, ha, hb)
	sh := &t.shards[shardOf(h)]
	sh.lookups++
	if sh.entries != nil {
		e := &sh.entries[h&uint64(len(sh.entries)-1)]
		if e.op == op && e.ha == ha && e.hb == hb && t.r.Equal(e.a, a) && t.r.Equal(e.b, b) {
			sh.hits++
			return e.r, true
		}
	}
	var zero T
	return zero, false
}

func (t *scalarTable[T]) put(op scalarOp, ha, hb uint64, a, b, r T) {
	h := scalarSlot(op, ha, hb)
	sh := &t.shards[shardOf(h)]
	if sh.entries == nil {
		sh.entries = make([]scalarEntry[T], scalarTableSize/tableShardCount)
	}
	sh.entries[h&uint64(len(sh.entries)-1)] = scalarEntry[T]{op: op, ha: ha, hb: hb, a: a, b: b, r: r}
}

// clear empties every slot (dropping the references to their values) and
// resets the counters, as computeTable.clear does.
func (t *scalarTable[T]) clear() {
	for s := range t.shards {
		sh := &t.shards[s]
		clear(sh.entries)
		sh.lookups, sh.hits = 0, 0
	}
}

func (t *scalarTable[T]) counters() (lookups, hits uint64) {
	for s := range t.shards {
		lookups += t.shards[s].lookups
		hits += t.shards[s].hits
	}
	return lookups, hits
}

// Mul returns a·b through the table. Zero and unit operands go straight to
// the ring, whose own shortcuts answer them faster than a lookup.
func (t *scalarTable[T]) Mul(a, b T) T {
	r := t.r
	if r.IsZero(a) || r.IsZero(b) || r.IsOne(a) || r.IsOne(b) {
		return r.Mul(a, b)
	}
	return t.memo(scalarMul, a, b)
}

// Div returns a/b through the table (see Mul).
func (t *scalarTable[T]) Div(a, b T) T {
	r := t.r
	if r.IsZero(a) || r.IsOne(b) {
		return r.Div(a, b)
	}
	return t.memo(scalarDiv, a, b)
}

func (t *scalarTable[T]) memo(op scalarOp, a, b T) T {
	ha, hb := t.hash(a), t.hash(b)
	if v, ok := t.get(op, ha, hb, a, b); ok {
		return v
	}
	var v T
	if op == scalarMul {
		v = t.r.Mul(a, b)
	} else {
		v = t.r.Div(a, b)
	}
	t.put(op, ha, hb, a, b, v)
	return v
}
