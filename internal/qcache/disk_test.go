package qcache

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestDiskRoundTripAndRestart(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := Stamp{Repr: "alg", Norm: "left"}
	payload := []byte(`{"qubits":2,"cached-result":"envelope"}`)
	if err := d.Put(key(7), payload, st); err != nil {
		t.Fatal(err)
	}
	got, ok, err := d.Get(key(7), st)
	if err != nil || !ok || !bytes.Equal(got, payload) {
		t.Fatalf("get: %q %v %v", got, ok, err)
	}

	// "Restart": a fresh Disk over the same directory still serves the entry.
	d2, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err = d2.Get(key(7), st)
	if err != nil || !ok || !bytes.Equal(got, payload) {
		t.Fatalf("get after reopen: %q %v %v", got, ok, err)
	}

	// Missing key is a silent miss.
	if _, ok, err := d2.Get(key(8), st); ok || err != nil {
		t.Fatalf("missing key: %v %v", ok, err)
	}
}

func TestDiskStampValidation(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	st := Stamp{Repr: "float", Norm: "max", Eps: 1e-6}
	if err := d.Put(key(1), []byte("payload"), st); err != nil {
		t.Fatal(err)
	}
	for _, want := range []Stamp{
		{Repr: "alg", Norm: "max", Eps: 1e-6},
		{Repr: "float", Norm: "left", Eps: 1e-6},
		{Repr: "float", Norm: "max", Eps: 1e-3},
	} {
		_, ok, err := d.Get(key(1), want)
		var de *DiskEntryError
		if ok || !errors.As(err, &de) {
			t.Errorf("stamp %+v: ok=%v err=%v, want *DiskEntryError", want, ok, err)
		}
	}
	// The matching stamp still works.
	if _, ok, err := d.Get(key(1), st); !ok || err != nil {
		t.Fatalf("matching stamp refused: %v %v", ok, err)
	}
}

func TestDiskCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := Stamp{Repr: "alg", Norm: "left"}
	if err := d.Put(key(2), []byte("the payload bytes"), st); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key(2).String()+".qc")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte: checksum must catch it.
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, ok, err := d.Get(key(2), st)
	var de *DiskEntryError
	if ok || !errors.As(err, &de) {
		t.Fatalf("corrupt entry served: ok=%v err=%v", ok, err)
	}

	// Truncation is refused too.
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := d.Get(key(2), st); ok || err == nil {
		t.Fatalf("truncated entry served: ok=%v err=%v", ok, err)
	}

	// Unknown format version is refused.
	if err := os.WriteFile(path, []byte("qcache v9 repr=alg norm=left eps=0x0p+00 len=0 sha256=\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := d.Get(key(2), st); ok || err == nil {
		t.Fatalf("future-version entry served: ok=%v err=%v", ok, err)
	}
}

func TestCacheTwoTierPromotion(t *testing.T) {
	dir := t.TempDir()
	c, err := New(1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	st := Stamp{Repr: "alg", Norm: "left"}
	c.Put(key(3), []byte("result"), st)

	// A new Cache over the same dir has a cold memory tier: the first Get is
	// a disk hit (and promotes), the second a memory hit.
	c2, err := New(1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(key(3), st); !ok {
		t.Fatal("disk tier missed after restart")
	}
	if s := c2.Stats(); s.Hits != 1 || s.DiskHits != 1 {
		t.Fatalf("stats after disk hit: %+v", s)
	}
	if _, ok := c2.Get(key(3), st); !ok {
		t.Fatal("promotion into memory tier failed")
	}
	if s := c2.Stats(); s.Hits != 2 || s.DiskHits != 1 {
		t.Fatalf("stats after promoted hit: %+v", s)
	}

	// A corrupt disk entry heals: it is deleted on the failed Get.
	path := filepath.Join(dir, key(3).String()+".qc")
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	c3, err := New(1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c3.Get(key(3), st); ok {
		t.Fatal("garbage entry served")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("unusable entry was not cleared")
	}
}

func TestNilCacheIsAlwaysMiss(t *testing.T) {
	var c *Cache
	if c.Enabled() {
		t.Fatal("nil cache claims to be enabled")
	}
	c.Put(key(1), []byte("x"), Stamp{})
	if _, ok := c.Get(key(1), Stamp{}); ok {
		t.Fatal("nil cache hit")
	}
	if s := c.Stats(); s != (Stats{}) {
		t.Fatalf("nil stats = %+v", s)
	}
	if disabled, err := New(0, ""); disabled != nil || err != nil {
		t.Fatalf("New(0, \"\") = %v, %v; want nil, nil", disabled, err)
	}
}
