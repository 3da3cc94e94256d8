package qcache

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestDiskLRUEviction pins the byte-cap policy: eviction removes the
// least-recently-ACCESSED entries (Get refreshes recency, not just Put),
// oldest first, until the tier fits again.
func TestDiskLRUEviction(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := Stamp{Repr: "alg", Norm: "left"}
	payload := bytes.Repeat([]byte("x"), 1024)
	for i := 1; i <= 3; i++ {
		if err := d.Put(key(byte(i)), payload, st); err != nil {
			t.Fatal(err)
		}
	}
	info, err := os.Stat(filepath.Join(dir, key(1).String()+".qc"))
	if err != nil {
		t.Fatal(err)
	}
	// Cap at exactly three entries, then install a deterministic recency
	// order: key(1) oldest … key(3) newest.
	d.maxBytes = 3 * info.Size()
	now := time.Now()
	for i := 1; i <= 3; i++ {
		ts := now.Add(time.Duration(i-4) * time.Hour)
		if err := os.Chtimes(filepath.Join(dir, key(byte(i)).String()+".qc"), ts, ts); err != nil {
			t.Fatal(err)
		}
	}
	// Reading key(1) refreshes it: the LRU victim is now key(2).
	if _, ok, err := d.Get(key(1), st); !ok || err != nil {
		t.Fatalf("get before eviction: %v %v", ok, err)
	}
	if err := d.Put(key(4), payload, st); err != nil {
		t.Fatal(err)
	}
	if got := d.Evictions(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if _, ok, _ := d.Get(key(2), st); ok {
		t.Fatal("LRU victim key(2) survived")
	}
	for _, i := range []int{1, 3, 4} {
		if _, ok, err := d.Get(key(byte(i)), st); !ok || err != nil {
			t.Fatalf("key(%d) was evicted: %v %v", i, ok, err)
		}
	}
}

// TestDiskUnboundedNeverEvicts: without a cap the tier grows monotonically.
func TestDiskUnboundedNeverEvicts(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	st := Stamp{Repr: "alg", Norm: "left"}
	payload := bytes.Repeat([]byte("y"), 4096)
	for i := 0; i < 5; i++ {
		if err := d.Put(key(byte(i)), payload, st); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if _, ok, err := d.Get(key(byte(i)), st); !ok || err != nil {
			t.Fatalf("key(%d) missing: %v %v", i, ok, err)
		}
	}
	if d.Evictions() != 0 {
		t.Fatalf("evictions = %d, want 0", d.Evictions())
	}
}

// TestNewBoundedSurfacesDiskEvictions: the -cache-max-bytes wiring — a
// bounded two-tier cache evicts on disk and reports it through Stats, the
// counter /metrics exports.
func TestNewBoundedSurfacesDiskEvictions(t *testing.T) {
	c, err := NewBounded(0, t.TempDir(), 3<<10)
	if err != nil {
		t.Fatal(err)
	}
	st := Stamp{Repr: "alg", Norm: "left"}
	payload := bytes.Repeat([]byte("z"), 2048)
	c.Put(key(1), payload, st)
	c.Put(key(2), payload, st)
	s := c.Stats()
	if s.DiskEvictions != 1 {
		t.Fatalf("DiskEvictions = %d, want 1", s.DiskEvictions)
	}
	if s.Stores != 2 {
		t.Fatalf("Stores = %d, want 2", s.Stores)
	}
}
