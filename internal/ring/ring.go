// Package ring implements the consistent-hash ring that shards job
// fingerprints across qmddd worker nodes. The design goals are the ones the
// scale-out tier needs:
//
//   - Determinism across processes and restarts: the ring is a pure function
//     of the member names and the vnode count. Router and workers configured
//     with the same member list agree on every key's owner without any
//     coordination, and a restarted process rebuilds the identical ring.
//   - Bounded movement: adding or removing one of N members remaps only the
//     keys whose nearest vnode belonged to that member — about 1/N of the
//     keyspace — so warm-manager locality and the content-addressed caches
//     survive a topology change mostly intact.
//   - Even spread: every member contributes VNodes pseudo-random points, so
//     shard sizes concentrate around the mean (the ring_test spread bound).
//
// Hashing is SHA-256 truncated to 64 bits. It is not seeded and has no
// process-local state, which is what makes the ring reproducible; it is also
// the same hash family as the job fingerprints it shards, so adversarial key
// distributions are no worse than random.
package ring

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"net/url"
	"sort"
	"strings"
)

// DefaultVNodes is the per-member virtual-node count. 128 points per member
// keeps the max/min shard ratio under 1.3 for small clusters (asserted by the
// package tests) at a memory cost of 16 bytes per point.
const DefaultVNodes = 128

// NormalizeMembers turns a configured member-URL list into ring member
// names: each value is trimmed of spaces and trailing slashes, empty values
// and repeats are dropped (first occurrence kept), and a value that is not
// a base URL (scheme://host) is an error. Every tier that builds a ring
// from a URL list — the router over its workers, each worker over its
// peers — goes through it, so a key has one owner cluster-wide.
func NormalizeMembers(list []string) ([]string, error) {
	out := make([]string, 0, len(list))
	seen := make(map[string]bool, len(list))
	for _, m := range list {
		m = strings.TrimRight(strings.TrimSpace(m), "/")
		if m == "" || seen[m] {
			continue
		}
		if u, err := url.Parse(m); err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("member %q is not a base URL", m)
		}
		seen[m] = true
		out = append(out, m)
	}
	return out, nil
}

type point struct {
	hash uint64
	node int32 // index into nodes
}

// Ring is an immutable consistent-hash ring. Build one with New; to change
// membership, build a new ring (they are cheap: N·VNodes hashes plus a sort).
type Ring struct {
	nodes  []string
	vnodes int
	points []point // sorted by hash
}

// New builds a ring over the given member names with vnodes points per
// member (0 selects DefaultVNodes). Member order does not matter — the ring
// is a function of the member *set* — and duplicate names are collapsed.
func New(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	seen := make(map[string]bool, len(members))
	nodes := make([]string, 0, len(members))
	for _, m := range members {
		if m != "" && !seen[m] {
			seen[m] = true
			nodes = append(nodes, m)
		}
	}
	sort.Strings(nodes)
	r := &Ring{nodes: nodes, vnodes: vnodes}
	r.points = make([]point, 0, len(nodes)*vnodes)
	for ni, name := range nodes {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{hash: pointHash(name, v), node: int32(ni)})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// Equal hashes (astronomically unlikely) tie-break on the member name
		// so the ring stays a pure function of the member set.
		return r.nodes[a.node] < r.nodes[b.node]
	})
	return r
}

// pointHash places vnode v of a member on the ring.
func pointHash(name string, v int) uint64 {
	h := sha256.New()
	h.Write([]byte("qmddd-ring-v1\x00"))
	h.Write([]byte(name))
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	h.Write(buf[:])
	return binary.BigEndian.Uint64(h.Sum(nil)[:8])
}

// keyHash places a key on the ring.
func keyHash(key []byte) uint64 {
	h := sha256.New()
	h.Write([]byte("qmddd-ring-key-v1\x00"))
	h.Write(key)
	return binary.BigEndian.Uint64(h.Sum(nil)[:8])
}

// Members returns the member names in canonical (sorted) order.
func (r *Ring) Members() []string {
	out := make([]string, len(r.nodes))
	copy(out, r.nodes)
	return out
}

// Len returns the member count.
func (r *Ring) Len() int { return len(r.nodes) }

// Owner returns the member owning key: the member of the first ring point at
// or clockwise after the key's hash. Empty string on an empty ring.
func (r *Ring) Owner(key []byte) string {
	owners := r.Owners(key, 1)
	if len(owners) == 0 {
		return ""
	}
	return owners[0]
}

// Owners returns up to k distinct members in ring order starting at the
// key's position. The first entry is the owner; the rest are the members
// that would own the key if every earlier entry left the ring — exactly the
// fallback order a router wants for rerouting, and the predecessors a
// rebalanced worker should ask for a migrated cache entry.
func (r *Ring) Owners(key []byte, k int) []string {
	if len(r.points) == 0 || k <= 0 {
		return nil
	}
	if k > len(r.nodes) {
		k = len(r.nodes)
	}
	kh := keyHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= kh })
	out := make([]string, 0, k)
	seen := make(map[int32]bool, k)
	for i := 0; i < len(r.points) && len(out) < k; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, r.nodes[p.node])
		}
	}
	return out
}

// String describes the ring for logs.
func (r *Ring) String() string {
	return fmt.Sprintf("ring(%d members × %d vnodes)", len(r.nodes), r.vnodes)
}
