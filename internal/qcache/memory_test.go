package qcache

import (
	"bytes"
	"testing"
)

func key(b byte) Key {
	var k Key
	k[0] = b
	return k
}

func TestMemoryPutGet(t *testing.T) {
	c := NewMemory(1<<20, payloadSize)
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(key(1), []byte("hello"))
	got, ok := c.Get(key(1))
	if !ok || !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("got %q, %v", got, ok)
	}
	if c.Len() != 1 || c.Bytes() != int64(5+memOverhead) {
		t.Fatalf("len=%d bytes=%d", c.Len(), c.Bytes())
	}
	// Replacing under the same key adjusts the accounting, not the count.
	c.Put(key(1), []byte("hello, world"))
	if c.Len() != 1 || c.Bytes() != int64(12+memOverhead) {
		t.Fatalf("after replace: len=%d bytes=%d", c.Len(), c.Bytes())
	}
}

func TestMemoryLRUEviction(t *testing.T) {
	// Cap fits exactly two entries of 100 payload bytes.
	c := NewMemory(2*(100+memOverhead), payloadSize)
	pay := func(b byte) []byte { return bytes.Repeat([]byte{b}, 100) }
	c.Put(key(1), pay(1))
	c.Put(key(2), pay(2))
	if _, ok := c.Get(key(1)); !ok { // refresh 1 → 2 is now the LRU
		t.Fatal("missing entry 1")
	}
	c.Put(key(3), pay(3)) // must evict 2, not 1
	if _, ok := c.Get(key(2)); ok {
		t.Fatal("LRU entry 2 survived")
	}
	if _, ok := c.Get(key(1)); !ok {
		t.Fatal("recently-used entry 1 was evicted")
	}
	if _, ok := c.Get(key(3)); !ok {
		t.Fatal("new entry 3 missing")
	}
	if c.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", c.Evictions())
	}
	if c.Bytes() > 2*(100+memOverhead) {
		t.Fatalf("bytes = %d over cap", c.Bytes())
	}
}

func TestMemoryOversizedEntryRejected(t *testing.T) {
	c := NewMemory(256, payloadSize)
	c.Put(key(1), bytes.Repeat([]byte{1}, 64))
	c.Put(key(2), bytes.Repeat([]byte{2}, 10_000)) // larger than the whole cap
	if _, ok := c.Get(key(2)); ok {
		t.Fatal("oversized entry was stored")
	}
	if _, ok := c.Get(key(1)); !ok {
		t.Fatal("oversized Put evicted the existing entry")
	}
}
