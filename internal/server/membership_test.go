package server

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/qasm"
	"repro/internal/router"
)

// TestPeerMembershipMatchesRouter: the router and a worker's peer client,
// given the same messy member list (spaces, trailing slashes, duplicates,
// an empty element, and the worker itself), derive the same member set and
// the same owner for every key. A disagreement would send a routed job to
// one worker and that worker's peer fetch to another.
func TestPeerMembershipMatchesRouter(t *testing.T) {
	// Nothing listens on these ports; the router's first probe fails fast.
	list := []string{" http://127.0.0.1:1/", "http://127.0.0.1:2//", "", "http://127.0.0.1:1", "http://127.0.0.1:3 "}
	self := "http://127.0.0.1:3/"

	rt, err := router.New(router.Config{Workers: list, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	pc, err := newPeerClient(self, list, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pc == nil {
		t.Fatal("three members ran standalone")
	}
	if pc.self != "http://127.0.0.1:3" {
		t.Errorf("peer client self = %q", pc.self)
	}

	var routed []string
	for _, h := range rt.Healths() {
		routed = append(routed, h.URL)
	}
	want := "http://127.0.0.1:1 http://127.0.0.1:2 http://127.0.0.1:3"
	if got := strings.Join(routed, " "); got != want {
		t.Errorf("router members %q, want %q", got, want)
	}
	if got := strings.Join(pc.ring.Members(), " "); got != want {
		t.Errorf("peer members %q, want %q", got, want)
	}

	// The router keys a job by its circuit fingerprint; the peer ring must
	// name the same owner for that key.
	owners := map[string]bool{}
	for i := 1; i <= 40; i++ {
		src := ghzQASM(i%12+1) + strings.Repeat("x q[0];\n", i/12)
		c, err := qasm.Parse(src, "owner")
		if err != nil {
			t.Fatal(err)
		}
		fp := circuit.Fingerprint(c)
		if got, want := pc.ring.Owner(fp[:]), rt.OwnerOf(src); got != want {
			t.Errorf("circuit %d: router owner %s, peer owner %s", i, want, got)
		}
		owners[rt.OwnerOf(src)] = true
	}
	if len(owners) < 2 {
		t.Errorf("40 circuits all owned by %v; the comparison is vacuous", owners)
	}
}

// TestPeerMembershipStandaloneAndInvalid: an empty -peers (split to one
// empty element) and a list that folds down to self alone run standalone,
// and a value that is not a base URL is refused by both tiers.
func TestPeerMembershipStandaloneAndInvalid(t *testing.T) {
	for _, peers := range [][]string{{""}, {" http://127.0.0.1:3/ ", ""}} {
		if pc, err := newPeerClient("http://127.0.0.1:3", peers, 0); err != nil || pc != nil {
			t.Errorf("peers %q: client %v, err %v; want standalone", peers, pc, err)
		}
	}
	if _, err := router.New(router.Config{Workers: []string{"", " "}}); err == nil {
		t.Error("router accepted an empty worker list")
	}
	bad := []string{"http://127.0.0.1:1", "127.0.0.1:2"}
	if _, err := newPeerClient("http://127.0.0.1:1", bad, 0); err == nil {
		t.Error("peer client accepted a member without a scheme")
	}
	if _, err := router.New(router.Config{Workers: bad, ProbeInterval: time.Hour}); err == nil {
		t.Error("router accepted a member without a scheme")
	}
}

// TestPeerMetricsGolden pins the peer client's /metrics families byte for
// byte, and that a peered worker's /metrics ends with them.
func TestPeerMetricsGolden(t *testing.T) {
	pc, err := newPeerClient("http://127.0.0.1:1", []string{"http://127.0.0.1:2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pc.fetches.Add(5)
	pc.misses.Add(3)
	pc.errors.Add(1)
	var sb strings.Builder
	pc.renderMetrics(&sb)
	if got := sb.String(); got != peerMetricsGolden {
		t.Errorf("peer client /metrics exposition changed:\n%s", got)
	}

	s := newPeerServer(t, Config{Workers: 1}, "http://127.0.0.1:1", []string{"http://127.0.0.1:2"})
	defer s.Shutdown(0)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	zero := strings.NewReplacer("_total 5\n", "_total 0\n", "_total 3\n", "_total 0\n", "_total 1\n", "_total 0\n").Replace(peerMetricsGolden)
	if body := rec.Body.String(); !strings.HasSuffix(body, zero) {
		t.Errorf("worker /metrics does not end with the peer families:\n%s", body)
	}
	if !strings.HasPrefix(rec.Body.String(), "# HELP qmddd_jobs_started_total ") {
		t.Error("worker /metrics does not start with the engine families")
	}
}

const peerMetricsGolden = `# HELP qmddd_cache_peer_fetches_total Cache lookups issued to ring peers.
# TYPE qmddd_cache_peer_fetches_total counter
qmddd_cache_peer_fetches_total 5
# HELP qmddd_cache_peer_misses_total Peer cache lookups answered 404.
# TYPE qmddd_cache_peer_misses_total counter
qmddd_cache_peer_misses_total 3
# HELP qmddd_cache_peer_errors_total Peer cache lookups that failed or returned invalid envelopes.
# TYPE qmddd_cache_peer_errors_total counter
qmddd_cache_peer_errors_total 1
`
