package core

// Hashing and open-addressed tables for the allocation-free QMDD core.
//
// Node uniqueness and operation memoization used to be keyed on canonical
// weight strings built on every call, so the hot path was dominated by
// string formatting rather than ring arithmetic. The core now interns every
// distinct edge weight once per manager, assigning it a dense uint32 weight
// ID (WID), and all table keys are fixed-size integer tuples: node keys hash
// (level, child node IDs, child WIDs) and compute-table keys hash
// (opTag, node IDs, WIDs). The hit paths compare machine words only — they
// neither format nor allocate. See DESIGN.md ("Keying and interning").
//
// Slot layout: each unique-table and intern-table probe reads the table's own
// memory first. A unique-table slot holds a node's hash beside its pointer,
// and an intern-table slot packs a weight's hash tag beside its index, so a
// probe leaves the slot array only when the hash (or tag) matches. Placement
// is independent of the layout: the start index h&mask, linear probing, the
// ¾-load doubling and grow's rehash order fix where every entry lands, and
// with it forEach order, WIDs and every ε > 0 output (TestTableLayoutGolden).
//
// Striping: each table is split into tableShardCount independent
// open-addressed shards selected by the *top* bits of the key hash (the low
// bits index slots within a shard, so the two selections stay uncorrelated).
// The tables are single-threaded and take no locks. The stripes are kept
// because the layout is observable: shard selection, slot functions and the WID
// encoding fix the compute-table collision pattern and the node visit order
// of forEach, and with ε > 0 the collision pattern shows in the float
// figures' output. Flattening them is a layout change with its own
// before/after evidence (DESIGN.md §5.6).

// mix64 is the SplitMix64 finalizer: a cheap full-avalanche mixer that
// spreads entropy into the low bits used for table indexing.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ceilPow2 returns the smallest power of two ≥ n (and ≥ 2).
func ceilPow2(n int) int {
	p := 2
	for p < n {
		p <<= 1
	}
	return p
}

// tableShardCount is the stripe width of every manager table. Shard
// selection uses the top tableShardBits of the mixed hash.
const (
	tableShardBits  = 4
	tableShardCount = 1 << tableShardBits
)

// shardOf selects the shard for a mixed hash (top bits; the low bits index
// slots inside the shard).
func shardOf(h uint64) uint64 { return h >> (64 - tableShardBits) }

// wtShard is one stripe of the weight intern table: an append-only list of
// canonical representatives, each stored beside its mixed hash, plus an
// open-addressed index. A slot packs the hash's high 32 bits (its tag) above
// local+1, so a probe reads the entry list only on a tag match, then
// compares the full hash, and calls Ring.Equal only when that matches too
// (see Manager.internWeight).
type wtShard[T any] struct {
	entries []wtEntry[T] // local index → canonical representative and its hash
	slots   []uint64     // open-addressed index; 0 = empty, else tag | local+1
	mask    uint64
}

// wtEntry is one interned weight with its mixed hash, cached for probing
// and growth.
type wtEntry[T any] struct {
	h uint64
	w T
}

// wtTagMask selects a slot's tag: the high 32 bits of the weight's mixed
// hash. The low 32 bits hold local+1.
const wtTagMask uint64 = 0xffff_ffff_0000_0000

// wtSlot packs the tag of h and a local index into a nonzero slot.
func wtSlot(h uint64, local int) uint64 { return h&wtTagMask | (uint64(local) + 1) }

// internTable assigns uint32 IDs (WIDs) to distinct weights across
// tableShardCount stripes. WID 0 is reserved for the ring's zero (stored in
// no shard); every other weight encodes as (local<<tableShardBits | shard)+1,
// so a WID resolves without consulting any other shard.
type internTable[T any] struct {
	shards [tableShardCount]wtShard[T]
}

// init empties the table into fresh slot arrays of the given size. The
// entry lists keep their capacity but drop their references: everything
// past len is zero at all times, so clearing the live part clears them.
func (t *internTable[T]) init(sizePerShard int) {
	for s := range t.shards {
		sh := &t.shards[s]
		clear(sh.entries)
		sh.entries = sh.entries[:0]
		sh.slots = make([]uint64, sizePerShard)
		sh.mask = uint64(sizePerShard - 1)
	}
}

// count returns the number of interned weights, zero included.
func (t *internTable[T]) count() int {
	n := 1 // WID 0, the reserved zero
	for s := range t.shards {
		n += len(t.shards[s].entries)
	}
	return n
}

// encodeWID packs a shard and local index into a nonzero WID.
func encodeWID(shard uint64, local int) uint32 {
	return (uint32(local)<<tableShardBits | uint32(shard)) + 1
}

// intern canonicalizes w (with mixed hash h, not the ring's zero class) and
// returns its WID, the canonical representative, and whether the weight was
// new.
func (t *internTable[T]) intern(w T, h uint64, equal func(a, b T) bool) (uint32, T, bool) {
	sh := &t.shards[shardOf(h)]
	i := h & sh.mask
	for {
		s := sh.slots[i]
		if s == 0 {
			break
		}
		if s&wtTagMask == h&wtTagMask {
			local := int(uint32(s)) - 1
			if e := &sh.entries[local]; e.h == h && equal(e.w, w) {
				return encodeWID(shardOf(h), local), e.w, false
			}
		}
		i = (i + 1) & sh.mask
	}
	local := len(sh.entries)
	sh.entries = append(sh.entries, wtEntry[T]{h: h, w: w})
	sh.slots[i] = wtSlot(h, local)
	if uint64(len(sh.entries))*4 >= uint64(len(sh.slots))*3 {
		sh.grow()
	}
	return encodeWID(shardOf(h), local), w, true
}

func (sh *wtShard[T]) grow() {
	slots := make([]uint64, len(sh.slots)*2)
	mask := uint64(len(slots) - 1)
	for local := range sh.entries {
		h := sh.entries[local].h
		i := h & mask
		for slots[i] != 0 {
			i = (i + 1) & mask
		}
		slots[i] = wtSlot(h, local)
	}
	sh.slots, sh.mask = slots, mask
}

// utShard is one stripe of the hash-consing table. Each slot holds a node
// pointer beside the node's unique-table hash, so a probe dereferences a
// node only when the hashes match; the node carries its own key (Level,
// child pointers, child WIDs) for that final comparison.
type utShard[T any] struct {
	slots         []utSlot[T]
	mask          uint64
	used          int
	lookups, hits uint64
}

// utSlot is one unique-table slot; n == nil marks it empty.
type utSlot[T any] struct {
	hash uint64
	n    *Node[T]
}

// uniqueTable is the sharded hash-consing table. Deletion happens only
// wholesale, in Prune, by rebuilding every shard.
type uniqueTable[T any] struct {
	shards [tableShardCount]utShard[T]
}

func (t *uniqueTable[T]) init(sizePerShard int) {
	for s := range t.shards {
		sh := &t.shards[s]
		sh.slots = make([]utSlot[T], sizePerShard)
		sh.mask = uint64(sizePerShard - 1)
		sh.used = 0
	}
}

// resetCounters zeroes the per-shard lookup/hit counters (Prune's rebuild
// keeps them; Manager.Reset restarts them).
func (t *uniqueTable[T]) resetCounters() {
	for s := range t.shards {
		t.shards[s].lookups, t.shards[s].hits = 0, 0
	}
}

// count returns the live node count across all shards.
func (t *uniqueTable[T]) count() int {
	n := 0
	for s := range t.shards {
		n += t.shards[s].used
	}
	return n
}

// counters sums the per-shard lookup/hit counters.
func (t *uniqueTable[T]) counters() (lookups, hits uint64) {
	for s := range t.shards {
		lookups += t.shards[s].lookups
		hits += t.shards[s].hits
	}
	return lookups, hits
}

// insert adds a node that is known not to be present (Prune's rebuild path;
// no counters).
func (t *uniqueTable[T]) insert(n *Node[T]) {
	sh := &t.shards[shardOf(n.hash)]
	i := n.hash & sh.mask
	for sh.slots[i].n != nil {
		i = (i + 1) & sh.mask
	}
	sh.place(i, n)
}

// place stores n in the empty slot i and doubles the shard at ¾ load.
func (sh *utShard[T]) place(i uint64, n *Node[T]) {
	sh.slots[i] = utSlot[T]{hash: n.hash, n: n}
	sh.used++
	if uint64(sh.used)*4 >= uint64(len(sh.slots))*3 {
		sh.grow()
	}
}

func (sh *utShard[T]) grow() {
	old := sh.slots
	sh.slots = make([]utSlot[T], len(old)*2)
	sh.mask = uint64(len(sh.slots) - 1)
	for _, s := range old {
		if s.n == nil {
			continue
		}
		i := s.hash & sh.mask
		for sh.slots[i].n != nil {
			i = (i + 1) & sh.mask
		}
		sh.slots[i] = s
	}
}

// forEach visits every live node in shard-then-slot order (Prune, tests).
func (t *uniqueTable[T]) forEach(f func(n *Node[T])) {
	for s := range t.shards {
		for _, slot := range t.shards[s].slots {
			if slot.n != nil {
				f(slot.n)
			}
		}
	}
}

// nodeHash mixes the unique-table key of a prospective node: its level and,
// per child, the target node ID and interned weight ID.
func nodeHash[T any](level int, es []Edge[T], wids *[MatrixArity]uint32) uint64 {
	h := mix64(uint64(level)<<3 | uint64(len(es)))
	for i := range es {
		var id uint64
		if es[i].N != nil {
			id = es[i].N.ID
		}
		h = mix64(h ^ id ^ uint64(wids[i])<<32)
	}
	return h
}
