package server

import (
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/httpx"
	"repro/internal/qcache"
	"repro/internal/ring"
)

// peerFanout bounds how many ring peers one lookup asks. The owners of a key
// barely move on membership change (bounded-movement hashing), so the first
// one or two owners cover both the steady state and the just-rebalanced
// state; asking everyone would turn each cold miss into a cluster broadcast.
const peerFanout = 2

// peerClient implements engine.Config.PeerLookup over the cache-peering
// endpoint: on a local miss it asks the ring owners of the key — the nodes a
// router was sending this fingerprint to before any topology change — for
// their stored envelope, and validates checksum and provenance stamp before
// the engine adopts the bytes. Peers are never trusted: a corrupt or
// mis-stamped envelope is dropped (counted as an error) and the job simply
// simulates locally.
type peerClient struct {
	self string
	ring *ring.Ring
	http *http.Client

	fetches atomic.Uint64 // GETs issued to peers
	misses  atomic.Uint64 // peer answered 404
	errors  atomic.Uint64 // network errors, non-200s, invalid envelopes
}

// newPeerClient builds the peering client, or returns nil when the
// membership leaves this node standalone (no peers beyond self).
func newPeerClient(self string, peers []string, timeout time.Duration) (*peerClient, error) {
	members, err := ring.NormalizeMembers(peers)
	if err != nil {
		return nil, fmt.Errorf("server: peer %w", err)
	}
	if len(members) == 0 {
		return nil, nil
	}
	me, err := ring.NormalizeMembers([]string{self})
	if err != nil {
		return nil, fmt.Errorf("server: self %w", err)
	}
	if len(me) == 0 {
		return nil, fmt.Errorf("server: peering needs -self (this node's advertised URL)")
	}
	if !slices.Contains(members, me[0]) {
		members = append(members, me[0])
	}
	if len(members) < 2 {
		return nil, nil // membership is just this node
	}
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	return &peerClient{
		self: me[0],
		ring: ring.New(members, ring.DefaultVNodes),
		http: &http.Client{Timeout: timeout},
	}, nil
}

// lookup fetches key from up to peerFanout ring owners (skipping self) and
// returns the first payload that survives envelope validation against the
// expected stamp.
func (pc *peerClient) lookup(key qcache.Key, stamp qcache.Stamp) ([]byte, bool) {
	asked := 0
	for _, owner := range pc.ring.Owners(key[:], pc.ring.Len()) {
		if owner == pc.self {
			continue
		}
		if asked++; asked > peerFanout {
			break
		}
		raw, err := pc.fetch(owner, key)
		if err != nil {
			if err == errPeerMiss {
				pc.misses.Add(1)
			} else {
				pc.errors.Add(1)
			}
			continue
		}
		payload, err := qcache.DecodeEntry(raw, stamp)
		if err != nil {
			// Bad bytes from a peer (corruption, tamper, version skew): refuse
			// and fall through to local simulation. Never adopt unverified data.
			pc.errors.Add(1)
			continue
		}
		return payload, true
	}
	return nil, false
}

var errPeerMiss = fmt.Errorf("peer cache miss")

func (pc *peerClient) fetch(base string, key qcache.Key) ([]byte, error) {
	pc.fetches.Add(1)
	resp, err := pc.http.Get(base + "/v1/cache/" + key.String())
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, errPeerMiss
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("peer %s: status %d", base, resp.StatusCode)
	}
	// An envelope is a result JSON plus a short header; 64 MiB is far above
	// any real entry and keeps a misbehaving peer from ballooning memory.
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	return raw, nil
}

// renderMetrics appends the peer-client counters to the engine's exposition
// (the engine itself renders qmddd_cache_peer_hits_total — hits are an
// engine-side adoption event).
func (pc *peerClient) renderMetrics(w io.Writer) {
	httpx.Counter(w, "qmddd_cache_peer_fetches_total", "Cache lookups issued to ring peers.", pc.fetches.Load())
	httpx.Counter(w, "qmddd_cache_peer_misses_total", "Peer cache lookups answered 404.", pc.misses.Load())
	httpx.Counter(w, "qmddd_cache_peer_errors_total", "Peer cache lookups that failed or returned invalid envelopes.", pc.errors.Load())
}
