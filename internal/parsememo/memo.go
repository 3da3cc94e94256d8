// Package parsememo puts a bounded memo in front of the OpenQASM front end,
// so a tier that sees the same request source again skips qasm.Parse and
// circuit.Fingerprint. The router keys its ring by the fingerprint and the
// worker keys its result cache by it: with the memo, a repeated request
// costs one SHA-256 of the source and one LRU lookup in each tier.
//
// Soundness: qasm.Parse is a pure function of the source text (the name
// argument only labels the circuit; it reaches no fingerprint, key or
// result), so the circuit parsed for a source serves every later request
// with the same bytes. Failed parses are never stored, so a bad source is
// parsed again on every submission, under the caller's name, and reports
// exactly the error and line a plain qasm.Parse would.
//
// Memoized circuits are shared between requests and goroutines and must be
// treated as immutable. Callers that build new circuits from them copy the
// gate slices first.
package parsememo

import (
	"crypto/sha256"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/circuit"
	"repro/internal/qasm"
	"repro/internal/qcache"
)

// MaxBytes bounds each memo's accounted size. It holds the benchmark's
// serving catalog (28 Grover-8 programs at 89 KB each, BWT 6×60 at 1.7 MB,
// GSE) about twice over, while a stream of distinct sources — a fresh
// batch base per request — adds at most this much live heap.
const MaxBytes = 8 << 20

// Parsed is one memo entry: the parsed circuit and, each computed on first
// use and shared afterwards, its fingerprint, its read-out-stripped form and
// that form's fingerprint.
type Parsed struct {
	circ   *circuit.Circuit
	srcLen int
	fpOnce sync.Once
	fp     [sha256.Size]byte
	stOnce sync.Once
	st     *circuit.Circuit
	stFP   [sha256.Size]byte
}

// Circuit returns the parsed circuit.
func (p *Parsed) Circuit() *circuit.Circuit { return p.circ }

// Fingerprint returns circuit.Fingerprint of the parsed circuit.
func (p *Parsed) Fingerprint() [sha256.Size]byte {
	p.fpOnce.Do(func() { p.fp = circuit.Fingerprint(p.circ) })
	return p.fp
}

// Stripped returns the circuit's StripReadout form and its fingerprint.
func (p *Parsed) Stripped() (*circuit.Circuit, [sha256.Size]byte) {
	p.stOnce.Do(func() {
		if p.st = p.circ.StripReadout(); p.st == p.circ {
			p.stFP = p.Fingerprint()
		} else {
			p.stFP = circuit.Fingerprint(p.st)
		}
	})
	return p.st, p.stFP
}

// size charges an entry for the source (gate names are substrings of it,
// so the circuit keeps it alive), the gate array, every control and
// parameter slice and condition, and the fixed part of the entry.
func size(p *Parsed) int64 {
	n := int64(p.srcLen) + int64(unsafe.Sizeof(*p)) + 2*int64(unsafe.Sizeof(circuit.Circuit{}))
	n += int64(cap(p.circ.Gates)) * int64(unsafe.Sizeof(circuit.Gate{}))
	for i := range p.circ.Gates {
		g := &p.circ.Gates[i]
		n += int64(len(g.Controls))*int64(unsafe.Sizeof(circuit.Control{})) + int64(len(g.Params))*8
		if g.Cond != nil {
			n += int64(unsafe.Sizeof(circuit.Cond{}))
		}
	}
	return n
}

// Memo maps the SHA-256 of a source to its parse, bounded at MaxBytes.
// It is safe for concurrent use.
type Memo struct {
	lru    *qcache.Memory[*Parsed]
	hits   atomic.Uint64
	misses atomic.Uint64
}

// New returns an empty memo.
func New() *Memo { return &Memo{lru: qcache.NewMemory(MaxBytes, size)} }

// Parse returns the parse of src: the memoized entry when this exact source
// was parsed before, otherwise the result of qasm.Parse(src, name), stored
// only when it succeeded. A hit's circuit carries the name of the request
// that first parsed the source. Two concurrent first requests for one
// source may both parse it; either entry is correct.
func (m *Memo) Parse(src, name string) (*Parsed, error) {
	k := qcache.Key(sha256.Sum256([]byte(src)))
	if p, ok := m.lru.Get(k); ok {
		m.hits.Add(1)
		return p, nil
	}
	m.misses.Add(1)
	c, err := qasm.Parse(src, name)
	if err != nil {
		return nil, err
	}
	p := &Parsed{circ: c, srcLen: len(src)}
	m.lru.Put(k, p)
	return p, nil
}

// Stats is a counters snapshot for /metrics.
type Stats struct {
	Hits    uint64
	Misses  uint64
	Entries int
	Bytes   int64
}

// Stats snapshots the memo's counters and size.
func (m *Memo) Stats() Stats {
	return Stats{Hits: m.hits.Load(), Misses: m.misses.Load(), Entries: m.lru.Len(), Bytes: m.lru.Bytes()}
}
