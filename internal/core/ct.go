package core

// computeTable memoizes operation results. Like classic DD packages it is a
// direct-mapped hash table with overwrite-on-collision: bounded memory, O(1)
// access, and stale entries simply fall out. Keys are fixed-size integer
// tuples — an operation tag plus the operand node IDs and interned weight
// IDs — so a lookup neither formats nor allocates; entries are verified by
// comparing the stored operands, so a collision can only cost a
// recomputation, never a wrong result.
//
// The table is striped like the unique and intern tables (hash.go): the top
// hash bits pick a shard, the low bits a logical slot. The split is kept for
// its collision pattern, which ε > 0 results depend on: which entries evict
// which decides what gets recomputed, and a recomputation under tolerance
// interning can land on a different representative (hash.go, DESIGN.md §5.6).
//
// The logical slots are what the table promises; the storage behind them
// costs what a job fills. Each shard stores its occupied slots in an
// open-addressed array keyed by the logical slot (linear probing from the
// slot's low bits), which starts at ctInitialShard entries and doubles at
// half load up to the shard's logical size; there it is the direct-mapped
// array itself, with every slot at its own index. A slot holds at most one
// entry either way, so every lookup hits, misses and evicts exactly as in
// the direct-mapped table. The logical slot rides in the key's padding, so
// an entry is no larger than a direct-mapped one. The array never shrinks:
// clears keep it, so a warm manager stops allocating once it has run its
// largest job.
//
// Clearing costs what was used, not what was allocated: each shard lists the
// array indices it filled since its last clear, in a preallocated list
// (dirtyLen), and clear zeroes just those — or the whole array once the
// list has overflowed or the array grew since the last clear (growth moves
// entries and restarts the list). Either way every slot ends up as in a
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
	slot       uint32 // logical slot within the shard; get and put set it from the hash
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
	mask    uint64       // logical slots − 1
	entries []ctEntry[T] // open-addressed by logical slot; len is a power of two ≤ mask+1
	slotLog              // occupied slots (load-factor reporting) and where they are
	grows   int          // times entries doubled

	lookups, hits uint64
}

type computeTable[T any] struct {
	shards [tableShardCount]ctShard[T]
}

// ctInitialShard is the entry count a shard's storage starts at (or the
// shard's logical size, if that is smaller).
const ctInitialShard = 64

// newComputeTable splits size total logical slots across the shards. A
// shard's slots must fit the key's 32-bit slot field.
func newComputeTable[T any](size int) *computeTable[T] {
	per := max(size/tableShardCount, 2)
	if size <= 0 || size&(size-1) != 0 || uint64(per) > 1<<32 {
		panic("core: compute table size must be a power of two of at most 2^36")
	}
	t := &computeTable[T]{}
	for s := range t.shards {
		sh := &t.shards[s]
		sh.entries = make([]ctEntry[T], min(per, ctInitialShard))
		sh.mask = uint64(per - 1)
		sh.slotLog = newSlotLog(sh.dirtyLen())
	}
	return t
}

// dirtyLen sizes a shard's dirty-slot list for its current array: half the
// array, every fill it takes before it doubles, but at most an eighth of
// the shard's logical slots, so a full-size array lists what the
// direct-mapped table did. A job that overflows the list pays one full
// clear of the array, which it has amortized over its own fills.
func (sh *ctShard[T]) dirtyLen() int {
	return min(len(sh.entries)/2, int(sh.mask+1)/8)
}

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

// capacity returns the logical slot count, whatever the storage holds.
func (t *computeTable[T]) capacity() int {
	n := 0
	for s := range t.shards {
		n += int(t.shards[s].mask) + 1
	}
	return n
}

// find returns the array index of the entry holding logical slot slot, or
// of the free entry where it belongs. The array is never full below the
// logical size (it doubles at half load), and at the logical size every
// slot sits at its own index, so the probe always ends.
func (sh *ctShard[T]) find(slot uint32) uint64 {
	pmask := uint64(len(sh.entries) - 1)
	for i := uint64(slot) & pmask; ; i = (i + 1) & pmask {
		if k := &sh.entries[i].key; k.slot == slot || k.op == ctFree {
			return i
		}
	}
}

func (t *computeTable[T]) get(k ctKey) (Edge[T], bool) {
	h := k.hash()
	sh := &t.shards[shardOf(h)]
	sh.lookups++
	k.slot = uint32(h & sh.mask)
	e := &sh.entries[sh.find(k.slot)]
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
	k.slot = uint32(h & sh.mask)
	i := sh.find(k.slot)
	e := &sh.entries[i]
	if e.key.op == ctFree {
		sh.fill(i)
	}
	e.key, e.val = k, val
	if 2*sh.filled > len(sh.entries) && uint64(len(sh.entries)) <= sh.mask {
		sh.grow()
	}
}

// grow doubles the shard's array and moves every entry to its new index.
// The dirty-slot list restarts empty at the new array's bound, so the
// shard's fill count now exceeds it and the next clear zeroes the whole
// array.
func (sh *ctShard[T]) grow() {
	old := sh.entries
	sh.entries = make([]ctEntry[T], 2*len(old))
	for i := range old {
		if old[i].key.op != ctFree {
			sh.entries[sh.find(old[i].key.slot)] = old[i]
		}
	}
	sh.dirty = make([]uint32, 0, sh.dirtyLen())
	sh.grows++
}
