package qcache

import "sync"

// Flight collapses concurrent identical work: the first Join for a key
// becomes the leader and actually runs; followers joining before the leader
// completes share its outcome instead of re-running. Unlike a cache, a
// flight entry exists only while the work is in progress — Complete removes
// it, so later submissions (cache misses after an eviction, say) start a
// fresh flight.
type Flight[V any] struct {
	mu    sync.Mutex
	calls map[Key]*Call[V]
}

// Call is one in-flight computation. The leader must call Complete exactly
// once; everyone may Wait.
type Call[V any] struct {
	f    *Flight[V]
	key  Key
	done chan struct{}

	// Written by Complete before done is closed; read-only afterwards.
	val V
	ok  bool
}

// NewFlight returns an empty singleflight group.
func NewFlight[V any]() *Flight[V] {
	return &Flight[V]{calls: make(map[Key]*Call[V])}
}

// Join returns the call for k, creating it if absent. The second return is
// true for the creator — the leader, who owns running the work and calling
// Complete.
func (f *Flight[V]) Join(k Key) (*Call[V], bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.calls[k]; ok {
		return c, false
	}
	c := &Call[V]{f: f, key: k, done: make(chan struct{})}
	f.calls[k] = c
	return c, true
}

// Inflight returns the number of open calls.
func (f *Flight[V]) Inflight() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.calls)
}

// Complete publishes the outcome and releases the key. ok=false means the
// work failed in a way followers should observe as a failure (same
// submission, same verdict); it does not re-queue anyone.
func (c *Call[V]) Complete(val V, ok bool) {
	c.f.mu.Lock()
	// Only remove the mapping if it is still ours: a late Complete after the
	// key was re-flown must not tear down a stranger's call.
	if c.f.calls[c.key] == c {
		delete(c.f.calls, c.key)
	}
	c.f.mu.Unlock()
	c.val = val
	c.ok = ok
	close(c.done)
}

// Done returns a channel closed when the call completes.
func (c *Call[V]) Done() <-chan struct{} { return c.done }

// Outcome returns the published value; valid only after Done is closed.
func (c *Call[V]) Outcome() (V, bool) { return c.val, c.ok }
