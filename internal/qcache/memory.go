package qcache

import (
	"container/list"
	"sync"
)

// memOverhead is the per-entry byte charge on top of the value's own size:
// key, list element, map slot. An estimate — the point of byte accounting is
// a stable ceiling, not heap-exact arithmetic.
const memOverhead = 128

// Memory is a thread-safe LRU keyed by content address, bounded by
// accounted bytes rather than entry count. It is tier 1 of the result cache
// (values are envelopes ranging from a few hundred bytes of amplitudes to
// megabytes of serialized diagrams) and the store behind the parse memo
// (values are parsed circuits); size reports a value's bytes, charged once
// when it is stored.
type Memory[V any] struct {
	mu        sync.Mutex
	cap       int64
	bytes     int64
	size      func(V) int64
	ll        *list.List // front = most recently used
	items     map[Key]*list.Element
	evictions uint64
}

type memEntry[V any] struct {
	key  Key
	val  V
	size int64 // accounted bytes, memOverhead included
}

// NewMemory returns an LRU bounded at maxBytes of accounted size.
func NewMemory[V any](maxBytes int64, size func(V) int64) *Memory[V] {
	return &Memory[V]{cap: maxBytes, size: size, ll: list.New(), items: make(map[Key]*list.Element)}
}

// payloadSize is the size function of the result-cache tier.
func payloadSize(p []byte) int64 { return int64(len(p)) }

// Get returns the value stored under k, refreshing its recency. The
// returned value is the cached one: callers must treat it as immutable.
func (c *Memory[V]) Get(k Key) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*memEntry[V]).val, true
}

// Put stores val under k, evicting least-recently-used entries until the
// byte cap holds again. A value that alone exceeds the cap is not stored
// (storing it would evict the entire cache for one entry).
func (c *Memory[V]) Put(k Key, val V) {
	size := c.size(val) + memOverhead
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.cap {
		return
	}
	if el, ok := c.items[k]; ok {
		// Same content address ⇒ same value in the usual case, but replace
		// anyway: the accounting must follow whatever the caller stored.
		ent := el.Value.(*memEntry[V])
		c.bytes += size - ent.size
		ent.val, ent.size = val, size
		c.ll.MoveToFront(el)
	} else {
		c.items[k] = c.ll.PushFront(&memEntry[V]{key: k, val: val, size: size})
		c.bytes += size
	}
	for c.bytes > c.cap {
		oldest := c.ll.Back()
		if oldest == nil {
			break
		}
		ent := oldest.Value.(*memEntry[V])
		c.ll.Remove(oldest)
		delete(c.items, ent.key)
		c.bytes -= ent.size
		c.evictions++
	}
}

// Bytes returns the accounted byte total.
func (c *Memory[V]) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Len returns the entry count.
func (c *Memory[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Evictions returns the cumulative eviction count.
func (c *Memory[V]) Evictions() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}
