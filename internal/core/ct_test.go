package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/alg"
)

// directCT is the direct-mapped compute table the compact one replaced:
// every logical slot allocated up front at index hash&mask of its shard. It
// is kept as the differential oracle for computeTable.
type directCT[T any] struct {
	shards [tableShardCount]struct {
		mask          uint64
		entries       []ctEntry[T]
		filled        int
		lookups, hits uint64
	}
}

func newDirectCT[T any](size int) *directCT[T] {
	per := max(size/tableShardCount, 2)
	t := &directCT[T]{}
	for s := range t.shards {
		t.shards[s].entries = make([]ctEntry[T], per)
		t.shards[s].mask = uint64(per - 1)
	}
	return t
}

func (t *directCT[T]) get(k ctKey) (Edge[T], bool) {
	h := k.hash()
	sh := &t.shards[shardOf(h)]
	sh.lookups++
	if e := &sh.entries[h&sh.mask]; e.key == k {
		sh.hits++
		return e.val, true
	}
	return Edge[T]{}, false
}

func (t *directCT[T]) put(k ctKey, val Edge[T]) {
	h := k.hash()
	sh := &t.shards[shardOf(h)]
	e := &sh.entries[h&sh.mask]
	if e.key.op == ctFree {
		sh.filled++
	}
	e.key, e.val = k, val
}

func (t *directCT[T]) clear() {
	for s := range t.shards {
		sh := &t.shards[s]
		clear(sh.entries)
		sh.filled, sh.lookups, sh.hits = 0, 0, 0
	}
}

// TestComputeTableMatchesDirectMapped drives the compact table and the
// direct-mapped oracle with the same seeded get/put/clear streams and
// checks that every lookup hits or misses alike and returns the same edge,
// and that the fill and hit counters agree after every round. Rounds range
// from a few operations to a few times the logical size, so the streams
// take every shard through each doubling up to its logical size and clear
// both from the dirty-slot list and, past its bound or after a growth, in
// full.
func TestComputeTableMatchesDirectMapped(t *testing.T) {
	for _, size := range []int{1 << 10, 1 << 14, DefaultCTSize} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(size)))
			ct, oracle := newComputeTable[complex128](size), newDirectCT[complex128](size)
			per := size / tableShardCount
			// Keys come from a universe about twice the logical size, so
			// puts both fill free slots and evict, and gets both hit and miss.
			universe := 2 * size
			key := func() ctKey {
				id := uint64(r.Intn(universe))
				return ctKey{op: ctOp(1 + id%3), aID: id, bID: id / 7, aWID: uint32(id % 5)}
			}
			listed, full := 0, 0
			for _, n := range []int{5, 300, 40, 4 * size, 100, 2 * size, 7, size / 3, 3 * size, 60} {
				for i := 0; i < n; i++ {
					k := key()
					if r.Intn(2) == 0 {
						got, gotOK := ct.get(k)
						want, wantOK := oracle.get(k)
						if gotOK != wantOK || got != want {
							t.Fatalf("get %+v: compact (%v, %v), direct-mapped (%v, %v)", k, got, gotOK, want, wantOK)
						}
					} else {
						v := Edge[complex128]{W: complex(float64(i), float64(n))}
						ct.put(k, v)
						oracle.put(k, v)
					}
				}
				for s := range ct.shards {
					c, o := &ct.shards[s], &oracle.shards[s]
					if c.filled != o.filled || c.lookups != o.lookups || c.hits != o.hits {
						t.Fatalf("shard %d after %d operations: compact fill %d, %d/%d hits; direct-mapped %d, %d/%d",
							s, n, c.filled, c.hits, c.lookups, o.filled, o.hits, o.lookups)
					}
					if c.filled > len(c.dirty) {
						full++
					} else {
						listed++
					}
				}
				ct.clear()
				oracle.clear()
				for s := range ct.shards {
					for i, e := range ct.shards[s].entries {
						if e != (ctEntry[complex128]{}) {
							t.Fatalf("shard %d index %d survived the clear: %+v", s, i, e.key)
						}
					}
				}
			}
			if listed == 0 || full == 0 {
				t.Fatalf("%d listed and %d full shard clears, want both", listed, full)
			}
			want := bits.Len(uint(per/ctInitialShard)) - 1
			for s := range ct.shards {
				sh := &ct.shards[s]
				if sh.grows != max(want, 0) || len(sh.entries) != per {
					t.Fatalf("shard %d: %d doublings to %d entries, want %d to %d", s, sh.grows, len(sh.entries), want, per)
				}
			}
		})
	}
}

// TestComputeTableEntrySize: the logical slot rides in the key's padding, so
// an entry costs what a direct-mapped one did.
func TestComputeTableEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(ctEntry[complex128]{}); got != 56 {
		t.Errorf("float entry: %d bytes, want 56", got)
	}
	if got := unsafe.Sizeof(ctEntry[alg.Q]{}); got != 88 {
		t.Errorf("Q[ω] entry: %d bytes, want 88", got)
	}
}
