package core

// Garbage collection. Long simulations (thousands of matrix-vector
// multiplications) leave the unique table full of nodes only reachable from
// stale intermediate states — and the weight intern table full of WIDs only
// those nodes (and transient compute-table operands) referenced. Prune
// performs a mark-and-sweep against a set of live roots: the intern table is
// rebuilt from the weights of the surviving nodes (releasing dead WIDs),
// every survivor gets fresh WIDs and a fresh hash, and both open-addressed
// tables are rebuilt right-sized. The compute table is cleared, since its
// entries may reference swept nodes and stale WIDs, and so is the exact
// rings' scalar-op table (scalar.go).
//
// Hash-consing identity is preserved for the surviving nodes — diagrams
// reachable from the given roots keep their pointers and IDs, so O(1)
// equality comparisons among them remain valid across a Prune.

// Prune drops every node not reachable from the given roots. It returns the
// number of nodes removed. Call it between operations (the sim/bench layers
// prune between gates).
func (m *Manager[T]) Prune(roots ...Edge[T]) int {
	// Mark: the shared walk keeps its own stack, so deep (≥1e5-level)
	// vector diagrams do not overflow the goroutine stack.
	_, live := walk(roots...)
	removed := m.ut.count() - len(live)

	// Suspend the budget while rebuilding: the survivor re-interning below
	// only ever shrinks the tables, and a governor panic mid-rebuild would
	// leave the manager half-rebuilt.
	defer func(b Budget) { m.budget = b }(m.budget)
	m.budget = Budget{}

	// Rebuild the intern table from the survivors: dead WIDs are released and
	// WID 0 stays pinned to zero. Every live node is re-interned (its weights
	// collapse onto the new canonical representatives), rehashed, and
	// reinserted into right-sized unique-table shards.
	// Survivors are re-interned in unique-table order, not walk order: under
	// a float ε > 0 the first weight interned in a tolerance class becomes
	// its representative, so the order is part of every later result.
	survivors := make([]*Node[T], 0, len(live))
	m.ut.forEach(func(n *Node[T]) {
		if _, ok := live[n]; ok {
			survivors = append(survivors, n)
		}
	})
	m.wt.init(shardSizeFor(len(live)*MatrixArity + 1))
	m.totalWeights = 1 // the reserved zero
	m.ut.init(shardSizeFor(len(live)))
	for _, n := range survivors {
		for i := range n.E {
			wid, canon := m.internWeight(n.E[i].W)
			n.wids[i] = wid
			n.E[i].W = canon
		}
		n.hash = nodeHash(n.Level, n.E, &n.wids)
		m.ut.insert(n)
	}
	m.totalNodes = int64(len(survivors))
	// Compute-table entries may reference swept nodes or stale WIDs; drop
	// them all.
	m.ct.clear()
	// The scalar table holds no node references; clearing it bounds how long
	// it keeps weights alive.
	if m.st != nil {
		m.st.clear()
	}
	// Invalidate outstanding Samplers: their node pointers and masses may
	// reference swept nodes (sampler.go returns ErrStaleSampler).
	m.pruneGen++
	m.stats.Prunes++
	m.stats.PrunedNodes += uint64(removed)
	return removed
}

// shardSizeFor returns a per-shard open-addressing slot count that keeps n
// entries spread over the shards at a load factor ≤ ½ (and at least the
// tables' minimum shard size).
func shardSizeFor(n int) int {
	size := ceilPow2(2 * (n/tableShardCount + 1))
	if size < 1<<4 {
		size = 1 << 4
	}
	return size
}
