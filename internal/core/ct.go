package core

// computeTable memoizes operation results. Like classic DD packages it is a
// fixed-size hash table with overwrite-on-collision: bounded memory, O(1)
// access, and stale entries simply fall out. Keys are fixed-size integer
// tuples — an operation tag plus the operand node IDs and interned weight
// IDs — so a lookup neither formats nor allocates; entries are verified by
// comparing the stored operands, so a collision can only cost a
// recomputation, never a wrong result.
//
// The table is striped like the unique and intern tables (hash.go): the top
// hash bits pick a shard, the low bits a slot. The split is kept for its
// collision pattern, which ε > 0 results depend on: which entries evict
// which decides what gets recomputed, and a recomputation under tolerance
// interning can land on a different representative (hash.go, DESIGN.md §5.6).

// ctOp tags the operation a compute-table entry memoizes. ctFree marks an
// empty slot, so real tags start at 1.
type ctOp uint8

const (
	ctFree ctOp = iota
	ctAdd
	ctMul
	ctKron
	ctAdjoint
	ctTranspose
	ctInner
	ctApply    // local gate application (apply.go); aID = node, bID = gate ID
	ctProject  // below-target control projector (apply.go)
	ctProjectC // complement of ctProject: the controls-not-all-satisfied part
)

// ctKey is the fixed-size compute-table key. Unary operations leave the b
// operand zero; node-only operations (Mul, Kron, …) leave the WIDs zero.
type ctKey struct {
	aID, bID   uint64
	aWID, bWID uint32
	op         ctOp
}

func (k ctKey) hash() uint64 {
	h := mix64(uint64(k.op)<<56 ^ k.aID)
	h = mix64(h ^ k.bID)
	return mix64(h ^ uint64(k.aWID) ^ uint64(k.bWID)<<32)
}

type ctEntry[T any] struct {
	key ctKey
	val Edge[T]
}

type ctShard[T any] struct {
	mask    uint64
	entries []ctEntry[T]
	filled  int // occupied slots (load-factor reporting)

	lookups, hits uint64
}

type computeTable[T any] struct {
	shards [tableShardCount]ctShard[T]
}

// newComputeTable splits size total slots across the shards.
func newComputeTable[T any](size int) *computeTable[T] {
	if size <= 0 || size&(size-1) != 0 {
		panic("core: compute table size must be a positive power of two")
	}
	per := size / tableShardCount
	if per < 2 {
		per = 2
	}
	t := &computeTable[T]{}
	for s := range t.shards {
		t.shards[s].entries = make([]ctEntry[T], per)
		t.shards[s].mask = uint64(per - 1)
	}
	return t
}

func (t *computeTable[T]) clear() {
	for s := range t.shards {
		sh := &t.shards[s]
		for i := range sh.entries {
			sh.entries[i] = ctEntry[T]{}
		}
		sh.filled = 0
		sh.lookups, sh.hits = 0, 0
	}
}

func (t *computeTable[T]) counters() (lookups, hits uint64) {
	for s := range t.shards {
		lookups += t.shards[s].lookups
		hits += t.shards[s].hits
	}
	return lookups, hits
}

func (t *computeTable[T]) filledTotal() int {
	n := 0
	for s := range t.shards {
		n += t.shards[s].filled
	}
	return n
}

func (t *computeTable[T]) capacity() int {
	n := 0
	for s := range t.shards {
		n += len(t.shards[s].entries)
	}
	return n
}

func (t *computeTable[T]) get(k ctKey) (Edge[T], bool) {
	h := k.hash()
	sh := &t.shards[shardOf(h)]
	sh.lookups++
	e := &sh.entries[h&sh.mask]
	if e.key == k {
		sh.hits++
		return e.val, true
	}
	var zero Edge[T]
	return zero, false
}

func (t *computeTable[T]) put(k ctKey, val Edge[T]) {
	h := k.hash()
	sh := &t.shards[shardOf(h)]
	e := &sh.entries[h&sh.mask]
	if e.key.op == ctFree {
		sh.filled++
	}
	e.key, e.val = k, val
}
