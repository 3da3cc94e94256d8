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
//
// Clearing costs what was used, not what was allocated: each shard lists the
// slots it filled since its last clear, in a list preallocated at
// 1/dirtyFraction of the shard, and clear zeroes just those — or the whole
// shard once the list has overflowed. Either way every slot ends up as in a
// fresh table, so the collision pattern after a clear is a fresh table's.

// ctOp tags the operation a compute-table entry memoizes. ctFree marks an
// empty slot, so real tags start at 1.
type ctOp uint8

const (
	ctFree ctOp = iota
	ctAdd
	ctMul
	ctKron
	ctAdjoint
	_          // retired tags: the slot hash mixes the tag, so the tags
	_          // after them keep their values and the collision pattern
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
	slotLog // occupied slots (load-factor reporting) and where they are

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
		t.shards[s].slotLog = newSlotLog(per / dirtyFraction)
	}
	return t
}

// dirtyFraction sizes a compute-table shard's dirty-slot list at
// 1/dirtyFraction of the shard. A job that fills more than that pays one
// full clear of the shard, which it has amortized over its own fills.
const dirtyFraction = 8

// slotLog records which slots of one memo-table shard were filled since its
// last clear.
type slotLog struct {
	filled int      // occupied slots
	dirty  []uint32 // their indices, while they fit the preallocated list
}

// newSlotLog returns a log whose dirty-slot list holds up to listLen slots.
func newSlotLog(listLen int) slotLog {
	return slotLog{dirty: make([]uint32, 0, listLen)}
}

// fill records that slot i went from free to occupied. It never allocates.
func (l *slotLog) fill(i uint64) {
	l.filled++
	if len(l.dirty) < cap(l.dirty) {
		l.dirty = append(l.dirty, uint32(i))
	}
}

// clearSlots zeroes every occupied slot of a shard — the listed ones, or
// all of them once the list has overflowed — and empties the log.
func clearSlots[E any](entries []E, l *slotLog) {
	if l.filled > len(l.dirty) {
		clear(entries)
	} else {
		var zero E
		for _, i := range l.dirty {
			entries[i] = zero
		}
	}
	l.dirty = l.dirty[:0]
	l.filled = 0
}

// clear empties every slot and resets the counters.
func (t *computeTable[T]) clear() {
	for s := range t.shards {
		sh := &t.shards[s]
		clearSlots(sh.entries, &sh.slotLog)
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
	i := h & sh.mask
	e := &sh.entries[i]
	if e.key.op == ctFree {
		sh.fill(i)
	}
	e.key, e.val = k, val
}
