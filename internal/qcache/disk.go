package qcache

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Disk is tier 2: one stamped envelope (see EncodeEntry) per entry under a
// cache directory, written with an atomic rename so a crash mid-write never
// leaves a half entry under a valid name. Entries are validated on load:
// wrong format version, provenance mismatch against the requesting identity,
// length or checksum disagreement all refuse the entry with *DiskEntryError
// instead of serving bytes that belong to a different configuration (or to
// nobody, after corruption).
type Disk struct {
	dir string
	// maxBytes, when positive, bounds the total size of .qc entries:
	// after every Put the least-recently-used entries (by the access time
	// Get maintains via Chtimes) are evicted until the tier fits again.
	// Without it a long-running checkpoint-heavy worker fills the disk.
	maxBytes  int64
	evictMu   sync.Mutex
	evictions atomic.Uint64
}

// DiskEntryError reports a disk entry that exists but cannot be served:
// stamped for a different configuration, truncated, or corrupt. Callers
// treat it as a miss (and may delete the file), but the typed reason keeps
// the two cases distinguishable in logs and tests.
type DiskEntryError struct {
	Path   string
	Reason string
}

func (e *DiskEntryError) Error() string {
	return fmt.Sprintf("qcache: disk entry %s: %s", e.Path, e.Reason)
}

// OpenDisk opens (creating if needed) a disk tier rooted at dir. When
// maxBytes is positive the .qc entries are LRU-bounded: after a Put that
// pushes them over the cap, the least-recently-accessed entries are
// removed until the tier fits. maxBytes <= 0 means unbounded.
func OpenDisk(dir string, maxBytes int64) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("qcache: opening cache dir: %w", err)
	}
	return &Disk{dir: dir, maxBytes: maxBytes}, nil
}

// Evictions returns how many entries the byte cap has removed.
func (d *Disk) Evictions() uint64 { return d.evictions.Load() }

// touch refreshes an entry's recency. True atimes are unreliable
// (noatime/relatime mounts), so recency is mtime maintained by hand: Put
// stamps it on write, touch on every successful read. Best-effort — a
// failed touch only ages the entry.
func (d *Disk) touch(path string) {
	now := time.Now()
	_ = os.Chtimes(path, now, now)
}

// evict enforces the byte cap: scan the tier, and while it exceeds
// maxBytes remove entries oldest-access-first. Concurrent Puts serialize
// on evictMu so two writers don't race over the same victims; readers are
// unaffected (a concurrently evicted entry just becomes a miss).
func (d *Disk) evict() {
	d.evictMu.Lock()
	defer d.evictMu.Unlock()
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return
	}
	type fileInfo struct {
		path  string
		size  int64
		atime time.Time
	}
	var files []fileInfo
	var total int64
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".qc") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, fileInfo{filepath.Join(d.dir, e.Name()), info.Size(), info.ModTime()})
		total += info.Size()
	}
	if total <= d.maxBytes {
		return
	}
	sort.Slice(files, func(i, j int) bool { return files[i].atime.Before(files[j].atime) })
	for _, f := range files {
		if total <= d.maxBytes {
			break
		}
		if os.Remove(f.path) == nil {
			total -= f.size
			d.evictions.Add(1)
		}
	}
}

func (d *Disk) path(k Key) string { return filepath.Join(d.dir, k.String()+".qc") }

// Put stores payload under k with the given stamp. The write lands in a
// temp file first and is renamed into place, so concurrent readers and
// crashes only ever observe complete entries.
func (d *Disk) Put(k Key, payload []byte, st Stamp) error {
	tmp, err := os.CreateTemp(d.dir, "tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(EncodeEntry(payload, st)); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), d.path(k)); err != nil {
		return err
	}
	if d.maxBytes > 0 {
		d.evict()
	}
	return nil
}

// Get loads the entry under k. A missing file is (nil, false, nil); an
// existing but unusable file is (nil, false, *DiskEntryError).
func (d *Disk) Get(k Key, want Stamp) ([]byte, bool, error) {
	path := d.path(k)
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	payload, err := DecodeEntry(raw, want)
	if err != nil {
		reason := err.Error()
		var ee *EntryError
		if errors.As(err, &ee) {
			reason = ee.Reason
		}
		return nil, false, &DiskEntryError{Path: path, Reason: reason}
	}
	if d.maxBytes > 0 {
		d.touch(path)
	}
	return payload, true, nil
}

// GetRaw loads the complete envelope (header + payload) under k without
// validating it — the bytes a cache peer serves verbatim over
// GET /v1/cache/{key}. The *receiving* side validates with DecodeEntry, so
// skipping validation here costs nothing: a corrupt envelope is refused at
// the consumer either way, and the serving side avoids hashing the payload
// twice.
func (d *Disk) GetRaw(k Key) ([]byte, bool, error) {
	raw, err := os.ReadFile(d.path(k))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	if d.maxBytes > 0 {
		d.touch(d.path(k))
	}
	return raw, true, nil
}

// Remove deletes the entry under k (used to clear unusable files).
func (d *Disk) Remove(k Key) error {
	err := os.Remove(d.path(k))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}
