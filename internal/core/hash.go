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
// canonical representatives plus an open-addressed index. Lookup is linear
// probing over cached hashes; candidate values are compared with Ring.Equal
// only when their hashes match (see Manager.internWeight).
type wtShard[T any] struct {
	weights []T      // local index → canonical representative
	hashes  []uint64 // local index → mixed hash, cached for growth
	slots   []uint32 // open-addressed index; 0 = empty, else local+1
	mask    uint64
}

// internTable assigns uint32 IDs (WIDs) to distinct weights across
// tableShardCount stripes. WID 0 is reserved for the ring's zero (stored in
// no shard); every other weight encodes as (local<<tableShardBits | shard)+1,
// so a WID resolves without consulting any other shard.
type internTable[T any] struct {
	shards [tableShardCount]wtShard[T]
}

// init empties the table into fresh slot arrays of the given size. The
// weight lists keep their capacity but drop their references: everything
// past len is zero at all times, so clearing the live part clears them.
func (t *internTable[T]) init(sizePerShard int) {
	for s := range t.shards {
		sh := &t.shards[s]
		clear(sh.weights)
		sh.weights = sh.weights[:0]
		sh.hashes = sh.hashes[:0]
		sh.slots = make([]uint32, sizePerShard)
		sh.mask = uint64(sizePerShard - 1)
	}
}

// count returns the number of interned weights, zero included.
func (t *internTable[T]) count() int {
	n := 1 // WID 0, the reserved zero
	for s := range t.shards {
		n += len(t.shards[s].weights)
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
		if local := s - 1; sh.hashes[local] == h && equal(sh.weights[local], w) {
			return encodeWID(shardOf(h), int(local)), sh.weights[local], false
		}
		i = (i + 1) & sh.mask
	}
	local := len(sh.weights)
	sh.weights = append(sh.weights, w)
	sh.hashes = append(sh.hashes, h)
	sh.slots[i] = uint32(local) + 1
	if uint64(len(sh.weights))*4 >= uint64(len(sh.slots))*3 {
		sh.grow()
	}
	return encodeWID(shardOf(h), local), w, true
}

func (sh *wtShard[T]) grow() {
	slots := make([]uint32, len(sh.slots)*2)
	mask := uint64(len(slots) - 1)
	for local, h := range sh.hashes {
		i := h & mask
		for slots[i] != 0 {
			i = (i + 1) & mask
		}
		slots[i] = uint32(local) + 1
	}
	sh.slots, sh.mask = slots, mask
}

// utShard is one stripe of the hash-consing table. Slots hold node pointers
// directly; every node carries its own key (Level, child pointers, child
// WIDs) plus its cached hash, so probing is pointer/ID comparisons.
type utShard[T any] struct {
	slots         []*Node[T]
	mask          uint64
	used          int
	lookups, hits uint64
}

// uniqueTable is the sharded hash-consing table. Deletion happens only
// wholesale, in Prune, by rebuilding every shard.
type uniqueTable[T any] struct {
	shards [tableShardCount]utShard[T]
}

func (t *uniqueTable[T]) init(sizePerShard int) {
	for s := range t.shards {
		sh := &t.shards[s]
		sh.slots = make([]*Node[T], sizePerShard)
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
	for sh.slots[i] != nil {
		i = (i + 1) & sh.mask
	}
	sh.slots[i] = n
	sh.used++
	if uint64(sh.used)*4 >= uint64(len(sh.slots))*3 {
		sh.grow()
	}
}

func (sh *utShard[T]) grow() {
	old := sh.slots
	sh.slots = make([]*Node[T], len(old)*2)
	sh.mask = uint64(len(sh.slots) - 1)
	for _, n := range old {
		if n == nil {
			continue
		}
		i := n.hash & sh.mask
		for sh.slots[i] != nil {
			i = (i + 1) & sh.mask
		}
		sh.slots[i] = n
	}
}

// forEach visits every live node in shard-then-slot order (Prune, tests).
func (t *uniqueTable[T]) forEach(f func(n *Node[T])) {
	for s := range t.shards {
		for _, n := range t.shards[s].slots {
			if n != nil {
				f(n)
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
