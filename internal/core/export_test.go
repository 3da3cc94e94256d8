package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"unsafe"
)

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

// TableLayout digests where a float manager's unique and intern tables
// placed their entries. unique hashes each node's ID and child WIDs in
// forEach (shard-then-slot) order; intern hashes, for every occupied slot in
// shard-then-slot order, the WID it holds and its weight's bits.
func TableLayout(m *Manager[complex128]) (unique, intern string) {
	var b []byte
	hu := sha256.New()
	m.ut.forEach(func(n *Node[complex128]) {
		b = binary.LittleEndian.AppendUint64(b[:0], n.ID)
		for i := range n.E {
			b = binary.LittleEndian.AppendUint32(b, n.wids[i])
		}
		hu.Write(b)
	})
	hw := sha256.New()
	for s := range m.wt.shards {
		sh := &m.wt.shards[s]
		for _, slot := range sh.slots {
			if slot == 0 {
				continue
			}
			local := int(uint32(slot)) - 1
			w := sh.entries[local].w
			b = binary.LittleEndian.AppendUint32(b[:0], encodeWID(uint64(s), local))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(real(w)))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(imag(w)))
			hw.Write(b)
		}
	}
	return hex.EncodeToString(hu.Sum(nil)), hex.EncodeToString(hw.Sum(nil))
}
