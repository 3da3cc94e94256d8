package qcache

import "sync/atomic"

// Cache combines the memory and disk tiers behind one Get/Put and keeps the
// counters the /metrics endpoint exports. Either tier may be absent; a nil
// *Cache is a valid always-miss cache, so callers can wire it
// unconditionally.
type Cache struct {
	mem  *Memory
	disk *Disk

	hits     atomic.Uint64 // served from any tier
	diskHits atomic.Uint64 // ... of which came from disk
	misses   atomic.Uint64
	stores   atomic.Uint64
}

// New builds a cache with an in-memory tier of memBytes (0 disables tier 1)
// and a disk tier rooted at dir ("" disables tier 2). Returns nil when both
// tiers are disabled.
func New(memBytes int64, dir string) (*Cache, error) {
	return NewBounded(memBytes, dir, 0)
}

// NewBounded is New with a byte cap on the disk tier: when diskMaxBytes is
// positive, the least-recently-accessed disk entries are evicted after
// every store that pushes the tier over the cap.
func NewBounded(memBytes int64, dir string, diskMaxBytes int64) (*Cache, error) {
	if memBytes <= 0 && dir == "" {
		return nil, nil
	}
	c := &Cache{}
	if memBytes > 0 {
		c.mem = NewMemory(memBytes)
	}
	if dir != "" {
		d, err := OpenDisk(dir, diskMaxBytes)
		if err != nil {
			return nil, err
		}
		c.disk = d
	}
	return c, nil
}

// Get looks k up in memory, then on disk. A disk hit is promoted into the
// memory tier. Disk entries that exist but fail validation (stamp mismatch,
// corruption) are deleted and counted as misses — the next Put rewrites
// them.
func (c *Cache) Get(k Key, want Stamp) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	if c.mem != nil {
		if p, ok := c.mem.Get(k); ok {
			c.hits.Add(1)
			return p, true
		}
	}
	if c.disk != nil {
		p, ok, err := c.disk.Get(k, want)
		if ok {
			c.hits.Add(1)
			c.diskHits.Add(1)
			if c.mem != nil {
				c.mem.Put(k, p)
			}
			return p, true
		}
		if err != nil {
			// Unusable entry: clear it so the slot heals on the next store.
			_ = c.disk.Remove(k)
		}
	}
	c.misses.Add(1)
	return nil, false
}

// Put stores payload in every enabled tier. Disk write failures are
// swallowed: the cache is an accelerator, not a system of record — a full
// disk must not fail the job whose result was being cached.
func (c *Cache) Put(k Key, payload []byte, st Stamp) {
	if c == nil {
		return
	}
	c.stores.Add(1)
	if c.mem != nil {
		c.mem.Put(k, payload)
	}
	if c.disk != nil {
		_ = c.disk.Put(k, payload, st)
	}
}

// GetRaw returns the stamped disk-tier envelope for k verbatim (header +
// payload) — what a cache peer serves over GET /v1/cache/{key}. Only the
// disk tier is consulted: the memory tier holds bare payloads without their
// provenance stamps, and re-stamping them here would mint integrity headers
// this node cannot vouch for.
func (c *Cache) GetRaw(k Key) ([]byte, bool) {
	if c == nil || c.disk == nil {
		return nil, false
	}
	raw, ok, err := c.disk.GetRaw(k)
	if err != nil || !ok {
		return nil, false
	}
	return raw, true
}

// Stats is a counters snapshot for the observability surface.
type Stats struct {
	Hits      uint64
	DiskHits  uint64
	Misses    uint64
	Stores    uint64
	Evictions uint64
	// DiskEvictions counts entries removed by the disk tier's byte cap —
	// typed separately from memory-tier Evictions because disk evictions
	// destroy the only durable copy.
	DiskEvictions uint64
	Bytes         int64
	Entries       int
}

// Stats snapshots the cache counters (all zero for a nil cache).
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	s := Stats{
		Hits:     c.hits.Load(),
		DiskHits: c.diskHits.Load(),
		Misses:   c.misses.Load(),
		Stores:   c.stores.Load(),
	}
	if c.mem != nil {
		s.Evictions = c.mem.Evictions()
		s.Bytes = c.mem.Bytes()
		s.Entries = c.mem.Len()
	}
	if c.disk != nil {
		s.DiskEvictions = c.disk.Evictions()
	}
	return s
}

// Enabled reports whether any tier is active.
func (c *Cache) Enabled() bool { return c != nil }
