package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/engine"
	"repro/internal/qcache"
)

// newPeerServer builds a Server whose peering client is wired to the given
// membership, with self as this node's own URL. The URLs must already exist
// (httptest allocates the listener before the handler matters), so tests
// create listeners first and swap handlers in.
func newPeerServer(t *testing.T, cfg Config, self string, peers []string) *Server {
	t.Helper()
	cfg.Self = self
	cfg.Peers = peers
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// startSwappable returns a test listener whose handler can be installed
// after construction — needed because peer URLs must be known at Config
// time, before the Server handling them exists.
func startSwappable(t *testing.T) (*httptest.Server, *http.ServeMux) {
	t.Helper()
	mux := http.NewServeMux()
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, mux
}

// TestPeerCacheHitServesWithoutSimulation: a key warm on one node is served
// by a ring peer without the receiving node ever starting a job, and the
// adopted envelope heals the receiving node's own cache.
func TestPeerCacheHitServesWithoutSimulation(t *testing.T) {
	tsA, muxA := startSwappable(t)
	tsB, muxB := startSwappable(t)
	members := []string{tsA.URL, tsB.URL}

	srvA := newPeerServer(t, Config{Workers: 1, CacheDir: t.TempDir()}, tsA.URL, members)
	defer srvA.Shutdown(0)
	muxA.Handle("/", srvA)
	srvB := newPeerServer(t, Config{Workers: 1, CacheDir: t.TempDir()}, tsB.URL, members)
	defer srvB.Shutdown(0)
	muxB.Handle("/", srvB)

	body := fmt.Sprintf(`{"qasm": %q, "wait": true}`, groverQASM)

	// Warm the key on A (A may consult B first — a miss — then simulates).
	if resp, view, _ := postJob(t, tsA.URL, body); resp.StatusCode != http.StatusOK || view.Status != engine.StatusDone {
		t.Fatalf("warming run on A: %d %+v", resp.StatusCode, view)
	}
	if got := srvA.eng.JobsStarted(); got != 1 {
		t.Fatalf("A started %d jobs warming the key, want 1", got)
	}

	// Same job to B: served via the peering protocol, no local simulation.
	resp, view, _ := postJob(t, tsB.URL, body)
	if resp.StatusCode != http.StatusOK || view.Status != engine.StatusDone || !view.Cached {
		t.Fatalf("peer-served run on B: %d cached=%v %+v", resp.StatusCode, view.Cached, view.Error)
	}
	if got := srvB.eng.JobsStarted(); got != 0 {
		t.Fatalf("B started %d jobs for a peer-warm key, want 0", got)
	}
	if got := srvB.eng.PeerHits(); got != 1 {
		t.Fatalf("B peer hits = %d, want 1", got)
	}

	// Adoption: the envelope is now local to B — a replay is a plain cache
	// hit, no further peer traffic.
	fetchesBefore := srvB.peers.fetches.Load()
	if _, view, _ := postJob(t, tsB.URL, body); !view.Cached {
		t.Fatalf("replay on B after adoption: %+v", view)
	}
	if got := srvB.peers.fetches.Load(); got != fetchesBefore {
		t.Fatalf("replay issued %d extra peer fetches, want 0", got-fetchesBefore)
	}
}

// TestPeerDownFallsBackToSimulation: an unreachable peer costs one failed
// fetch, never the job — the node simulates locally and succeeds.
func TestPeerDownFallsBackToSimulation(t *testing.T) {
	ts, mux := startSwappable(t)
	// A peer that is guaranteed dead: grab a port, then close it.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	srv := newPeerServer(t, Config{Workers: 1, CacheDir: t.TempDir()}, ts.URL, []string{ts.URL, deadURL})
	defer srv.Shutdown(0)
	mux.Handle("/", srv)

	resp, view, _ := postJob(t, ts.URL, fmt.Sprintf(`{"qasm": %q, "wait": true}`, groverQASM))
	if resp.StatusCode != http.StatusOK || view.Status != engine.StatusDone || view.Cached {
		t.Fatalf("run with dead peer: %d %+v", resp.StatusCode, view)
	}
	if got := srv.eng.JobsStarted(); got != 1 {
		t.Fatalf("started %d jobs, want 1 (local simulation)", got)
	}
	if got := srv.peers.errors.Load(); got != 1 {
		t.Fatalf("peer errors = %d, want 1 (connection refused)", got)
	}
	if got := srv.eng.PeerHits(); got != 0 {
		t.Fatalf("peer hits = %d, want 0", got)
	}
}

// TestPeerCorruptEnvelopeRejected: a peer serving corrupt or mis-stamped
// bytes never poisons the receiver — the envelope fails checksum/stamp
// validation, the job simulates locally, and the locally computed result
// self-heals the node's cache so the peer is not asked again.
func TestPeerCorruptEnvelopeRejected(t *testing.T) {
	cases := []struct {
		name  string
		serve func(st qcache.Stamp) []byte
	}{
		{"flipped byte", func(st qcache.Stamp) []byte {
			raw := qcache.EncodeEntry([]byte(`{"qubits":2}`), st)
			raw[len(raw)-1] ^= 0xff // corrupt the payload after hashing
			return raw
		}},
		{"stamp mismatch", func(st qcache.Stamp) []byte {
			// Well-formed envelope, wrong provenance: float bytes offered for
			// an alg request.
			return qcache.EncodeEntry([]byte(`{"qubits":2}`), qcache.Stamp{Repr: "float", Norm: st.Norm, Eps: 0.5})
		}},
		{"garbage", func(qcache.Stamp) []byte { return []byte("not an envelope at all") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts, mux := startSwappable(t)
			evil, evilMux := startSwappable(t)
			wantStamp := qcache.Stamp{Repr: "alg", Norm: "left"}
			evilMux.HandleFunc("GET /v1/cache/{key}", func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/octet-stream")
				_, _ = w.Write(tc.serve(wantStamp))
			})

			srv := newPeerServer(t, Config{Workers: 1, CacheDir: t.TempDir()}, ts.URL, []string{ts.URL, evil.URL})
			defer srv.Shutdown(0)
			mux.Handle("/", srv)

			body := fmt.Sprintf(`{"qasm": %q, "wait": true}`, groverQASM)
			resp, view, _ := postJob(t, ts.URL, body)
			if resp.StatusCode != http.StatusOK || view.Status != engine.StatusDone || view.Cached {
				t.Fatalf("run against corrupt peer: %d %+v", resp.StatusCode, view)
			}
			if view.Result == nil || len(view.Result.Amplitudes) == 0 || view.Result.Amplitudes[0].State != "11" {
				t.Fatalf("local simulation produced a wrong result: %+v", view.Result)
			}
			if got := srv.eng.JobsStarted(); got != 1 {
				t.Fatalf("started %d jobs, want 1 (corrupt envelope must force local simulation)", got)
			}
			if got := srv.peers.errors.Load(); got != 1 {
				t.Fatalf("peer errors = %d, want 1 (invalid envelope)", got)
			}
			if got := srv.eng.PeerHits(); got != 0 {
				t.Fatalf("peer hits = %d, want 0", got)
			}

			// Self-healed: the locally computed envelope is cached, so a
			// replay is served locally with no further peer fetch.
			fetchesBefore := srv.peers.fetches.Load()
			if _, view, _ := postJob(t, ts.URL, body); !view.Cached {
				t.Fatalf("replay after self-heal: %+v", view)
			}
			if got := srv.peers.fetches.Load(); got != fetchesBefore {
				t.Fatalf("replay issued %d extra peer fetches, want 0", got-fetchesBefore)
			}
		})
	}
}

// TestCachePeekEndpoint: the peering endpoint serves exactly the stored
// stamped envelope, 404s a cold key, and rejects malformed keys.
func TestCachePeekEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, CacheDir: t.TempDir()})
	body := fmt.Sprintf(`{"qasm": %q, "wait": true}`, groverQASM)
	if resp, view, _ := postJob(t, ts.URL, body); resp.StatusCode != http.StatusOK || view.Status != engine.StatusDone {
		t.Fatalf("warming run: %d %+v", resp.StatusCode, view)
	}
	_ = s

	// Find the stored key via the disk directory: exactly one entry exists.
	// (Asking over HTTP with a made-up key must 404.)
	var zero qcache.Key
	resp, err := http.Get(ts.URL + "/v1/cache/" + zero.String())
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cold key = %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/cache/nothex")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed key = %d, want 400", resp.StatusCode)
	}
}
