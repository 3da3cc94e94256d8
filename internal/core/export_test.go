package core

import "unsafe"

// SetReadoutMemoCap lowers the exact read-out's memo bound for a test and
// returns the function that restores it.
func SetReadoutMemoCap(n int) (restore func()) {
	old := readoutMemoCap
	readoutMemoCap = n
	return func() { readoutMemoCap = old }
}

// CTBytes reports the bytes the compute table's storage holds: each shard's
// entry array and its dirty-slot list.
func CTBytes[T any](m *Manager[T]) int {
	n := 0
	for s := range m.ct.shards {
		sh := &m.ct.shards[s]
		n += cap(sh.entries)*int(unsafe.Sizeof(sh.entries[0])) + cap(sh.dirty)*int(unsafe.Sizeof(sh.dirty[0]))
	}
	return n
}

// CTGrowths reports how many times each compute-table shard's array has
// doubled since the manager was made.
func CTGrowths[T any](m *Manager[T]) []int {
	g := make([]int, len(m.ct.shards))
	for s := range m.ct.shards {
		g[s] = m.ct.shards[s].grows
	}
	return g
}
