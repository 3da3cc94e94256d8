// Package server implements the qmddd worker node: the HTTP/JSON transport
// over internal/engine (which owns the worker pool, the governor, the result
// cache and the singleflight layer). The transport's own concerns are the
// wire — body caps, request-id propagation, the access log — plus the
// cluster surface a scale-out tier needs: a liveness/readiness probe pair
// (/healthz vs /readyz), the cache-peering endpoint GET /v1/cache/{key}
// serving stamped disk envelopes to ring peers, and the peer client that
// asks those peers before paying for a simulation locally.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/engine"
	"repro/internal/httpx"
	"repro/internal/qcache"
)

// Config tunes the service. Zero values select the documented defaults; the
// *Cap fields are server-side ceilings that client budget fields are clamped
// against.
type Config struct {
	// Workers is the worker-pool size (default: GOMAXPROCS).
	Workers int
	// QueueSize bounds the job queue (default 64). A full queue answers 429.
	QueueSize int
	// MaxBodyBytes caps the request body (default 1 MiB). Larger answers 413.
	MaxBodyBytes int64
	// MaxJobs caps retained job records (default 1024).
	MaxJobs int
	// MaxQubits caps the circuit width (default 64 — basis-state indices are
	// uint64 on the wire).
	MaxQubits int
	// MaxTopK caps the amplitude list length (default 4096).
	MaxTopK int
	// MaxShots caps the shot count of a histogram job (default 1<<20).
	MaxShots int
	// CTSize is the per-manager compute-table slot count.
	CTSize int

	// NodeCap / WeightCap / ByteCap / TimeoutCap clamp the per-request
	// budget. See engine.Config.
	NodeCap    int
	WeightCap  int
	ByteCap    int64
	TimeoutCap time.Duration

	// MinFidelityFloor is the server-side floor for fidelity-bounded
	// approximation. See engine.Config.MinFidelityFloor.
	MinFidelityFloor float64

	// CacheBytes / CacheDir configure the two result-cache tiers. See
	// engine.Config. CacheMaxBytes, when positive, bounds the disk tier with
	// LRU-by-access-time eviction.
	CacheBytes    int64
	CacheDir      string
	CacheMaxBytes int64

	// CheckpointEvery / CheckpointBytes tune the prefix-checkpoint
	// subsystem. See engine.Config.
	CheckpointEvery int
	CheckpointBytes int64

	// MaxBatchVariants caps the variant count of one POST /v1/batches
	// submission (default 128).
	MaxBatchVariants int

	// Self is this node's advertised base URL (scheme://host:port) and Peers
	// the full cluster membership (base URLs, self included or not — Self is
	// always folded in). With ≥2 members, cache peering activates: a local
	// miss first asks the ring owners of the key for their stored envelope
	// (GET /v1/cache/{key}), validated by checksum and provenance stamp
	// before adoption. Empty Peers runs the node standalone.
	Self  string
	Peers []string
	// PeerTimeout bounds one peer cache fetch (default 2s) — peering is an
	// accelerator, a slow peer must cost less than the simulation it saves.
	PeerTimeout time.Duration

	// AccessLog, when non-nil, receives one structured line per HTTP
	// exchange (logfmt: time, request id, method, path, status, bytes,
	// duration).
	AccessLog io.Writer

	// hookRunning, when set (tests only), is invoked on the worker goroutine
	// as soon as a job transitions to running.
	hookRunning func(*engine.Job)
}

func (c Config) engineConfig() engine.Config {
	return engine.Config{
		Workers:          c.Workers,
		QueueSize:        c.QueueSize,
		MaxJobs:          c.MaxJobs,
		MaxQubits:        c.MaxQubits,
		MaxTopK:          c.MaxTopK,
		MaxShots:         c.MaxShots,
		CTSize:           c.CTSize,
		NodeCap:          c.NodeCap,
		WeightCap:        c.WeightCap,
		ByteCap:          c.ByteCap,
		TimeoutCap:       c.TimeoutCap,
		MinFidelityFloor: c.MinFidelityFloor,
		CacheBytes:       c.CacheBytes,
		CacheDir:         c.CacheDir,
		CacheMaxBytes:    c.CacheMaxBytes,
		CheckpointEvery:  c.CheckpointEvery,
		CheckpointBytes:  c.CheckpointBytes,
		MaxBatchVariants: c.MaxBatchVariants,
		HookRunning:      c.hookRunning,
	}
}

// Server is the qmddd HTTP transport over one engine. Create with New,
// serve it (it implements http.Handler), and call Shutdown to drain.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	eng   *engine.Engine
	peers *peerClient // nil when the node runs standalone
}

// New builds the service and starts its workers. It fails only when the
// configured cache directory cannot be created.
func New(cfg Config) (*Server, error) {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	ecfg := cfg.engineConfig()
	s := &Server{cfg: cfg, mux: http.NewServeMux()}
	ecfg.HookBatchChild = s.logBatchChild
	if pc, err := newPeerClient(cfg.Self, cfg.Peers, cfg.PeerTimeout); err != nil {
		return nil, err
	} else if pc != nil {
		s.peers = pc
		ecfg.PeerLookup = pc.lookup
	}
	eng, err := engine.New(ecfg)
	if err != nil {
		return nil, err
	}
	s.eng = eng
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("POST /v1/batches", s.handleBatchSubmit)
	s.mux.HandleFunc("GET /v1/batches/{id}", s.handleBatchStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/cache/{key}", s.handleCachePeek)
	s.mux.HandleFunc("GET /v1/version", s.handleVersion)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// ServeHTTP serves the API with the request-id and access-log middleware
// wrapped around every route.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	httpx.WithRequestID(s.cfg.AccessLog, s.mux).ServeHTTP(w, r)
}

// Engine exposes the underlying engine (introspection for cmd wiring and
// tests).
func (s *Server) Engine() *engine.Engine { return s.eng }

// Shutdown drains the service: intake stops immediately (submissions answer
// 503 and /readyz flips unready while /healthz stays live), workers finish
// the accepted jobs, and jobs still unfinished at the drain deadline are
// cancelled cooperatively through the governor.
func (s *Server) Shutdown(drain time.Duration) { s.eng.Shutdown(drain) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError serves the structured error envelope, stamped with the
// exchange's request id so a client-side error report can be joined against
// the access log.
func writeError(w http.ResponseWriter, r *http.Request, status int, body ErrorBody) {
	body.RequestID = httpx.RequestIDFrom(r)
	writeJSON(w, status, struct {
		Error ErrorBody `json:"error"`
	}{body})
}

// handleSubmit decodes and submits one job (POST /v1/jobs). Validation,
// caching, dedup and peering all happen inside engine.Submit; the transport
// maps the reject reasons onto HTTP and implements "wait": true by blocking
// on the job's done channel.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req JobRequest
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, r, http.StatusRequestEntityTooLarge, ErrorBody{
				Kind: KindTooLarge, Message: fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes),
			})
			return
		}
		writeError(w, r, http.StatusBadRequest, ErrorBody{Kind: KindInvalidRequest, Message: "decoding request: " + err.Error()})
		return
	}

	j, serr := s.eng.Submit(req)
	if serr != nil {
		status := http.StatusBadRequest
		switch serr.Reason {
		case engine.RejectDraining:
			status = http.StatusServiceUnavailable
		case engine.RejectBusy:
			status = http.StatusTooManyRequests
		}
		writeError(w, r, status, serr.Body)
		return
	}

	select {
	case <-j.Done():
		// Already finished (cache/peer/flight hit, or a fast run under wait).
		writeJSON(w, http.StatusOK, j.View(true))
		return
	default:
	}
	if req.Wait {
		select {
		case <-j.Done():
			writeJSON(w, http.StatusOK, j.View(true))
		case <-r.Context().Done():
			// Client gave up; the job keeps running and stays pollable.
			writeJSON(w, http.StatusAccepted, j.View(false))
		}
		return
	}
	writeJSON(w, http.StatusAccepted, j.View(false))
}

// handleBatchSubmit decodes and submits one batch (POST /v1/batches): a
// shared prefix simulated exactly once, fanned out into per-variant jobs.
// "wait": true blocks until every variant is terminal, mirroring /v1/jobs.
func (s *Server) handleBatchSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req engine.BatchRequest
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, r, http.StatusRequestEntityTooLarge, ErrorBody{
				Kind: KindTooLarge, Message: fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes),
			})
			return
		}
		writeError(w, r, http.StatusBadRequest, ErrorBody{Kind: KindInvalidRequest, Message: "decoding request: " + err.Error()})
		return
	}

	b, serr := s.eng.SubmitBatch(req, httpx.RequestIDFrom(r))
	if serr != nil {
		status := http.StatusBadRequest
		switch serr.Reason {
		case engine.RejectDraining:
			status = http.StatusServiceUnavailable
		case engine.RejectBusy:
			status = http.StatusTooManyRequests
		}
		writeError(w, r, status, serr.Body)
		return
	}
	if req.Wait {
		select {
		case <-b.Done():
			writeJSON(w, http.StatusOK, b.View(true))
		case <-r.Context().Done():
			// Client gave up; the batch keeps running and stays pollable.
			writeJSON(w, http.StatusAccepted, b.View(false))
		}
		return
	}
	writeJSON(w, http.StatusAccepted, b.View(false))
}

// handleBatchStatus serves one batch's aggregate view (GET /v1/batches/{id});
// per-variant results are attached once the batch is done. The router
// scatters this route across the cluster the same way it scatters job polls.
func (s *Server) handleBatchStatus(w http.ResponseWriter, r *http.Request) {
	b := s.eng.Batch(r.PathValue("id"))
	if b == nil {
		writeError(w, r, http.StatusNotFound, ErrorBody{Kind: KindNotFound, Message: "unknown batch id"})
		return
	}
	select {
	case <-b.Done():
		writeJSON(w, http.StatusOK, b.View(true))
	default:
		writeJSON(w, http.StatusOK, b.View(false))
	}
}

// logBatchChild emits one access-log line per batch child job, keyed by the
// child's derived request id (<parent>-/v<i>, or -/prefix for the shared
// prefix job), so the access log reconstructs a batch fan-out end to end.
func (s *Server) logBatchChild(b *engine.Batch, index int, j *engine.Job) {
	v := j.View(false)
	role := fmt.Sprintf("variant_%d", index)
	if index < 0 {
		role = "prefix"
	}
	httpx.Logf(s.cfg.AccessLog, "time=%s request_id=%s event=batch_child batch=%s role=%s job=%s cached=%t\n",
		time.Now().UTC().Format(time.RFC3339Nano), v.RequestID, b.ID(), role, v.ID, v.Cached)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.eng.Job(r.PathValue("id"))
	if j == nil {
		writeError(w, r, http.StatusNotFound, ErrorBody{Kind: KindNotFound, Message: "unknown job id"})
		return
	}
	writeJSON(w, http.StatusOK, j.View(false))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.eng.Job(r.PathValue("id"))
	if j == nil {
		writeError(w, r, http.StatusNotFound, ErrorBody{Kind: KindNotFound, Message: "unknown job id"})
		return
	}
	v := j.View(true)
	if v.Status == StatusQueued || v.Status == StatusRunning {
		writeError(w, r, http.StatusConflict, ErrorBody{
			Kind: KindNotFinished, Message: fmt.Sprintf("job is %s; poll /v1/jobs/%s", v.Status, j.ID()),
		})
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// handleCachePeek serves the cache-peering protocol: the stamped disk-tier
// envelope for a key, verbatim (header + payload). The caller validates the
// checksum and provenance stamp — this node vouches for nothing beyond
// "these are the bytes I stored". Misses (and memory-only caches) are 404.
func (s *Server) handleCachePeek(w http.ResponseWriter, r *http.Request) {
	key, err := qcache.ParseKey(r.PathValue("key"))
	if err != nil {
		writeError(w, r, http.StatusBadRequest, ErrorBody{Kind: KindInvalidRequest, Message: err.Error()})
		return
	}
	raw, ok := s.eng.CacheRaw(key)
	if !ok {
		writeError(w, r, http.StatusNotFound, ErrorBody{Kind: KindNotFound, Message: "no cache entry"})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(raw)
}

func (s *Server) handleVersion(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Name string `json:"name"`
		buildinfo.Info
	}{Name: "qmddd", Info: buildinfo.Read()})
}

// handleHealthz is the liveness probe: 200 for as long as the process can
// serve HTTP at all — including while draining, when the node is still
// finishing accepted jobs and serving polls. Restart-deciders watch this;
// traffic-routers must watch /readyz instead.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status   string `json:"status"`
		Draining bool   `json:"draining"`
	}{"ok", s.eng.Draining()})
}

// handleReadyz is the readiness probe: 200 only when the node should receive
// new work — worker pool warm, not draining. The body carries the queue
// depth and the pool's mean service time so a router can estimate expected
// wait without a second endpoint.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	type body struct {
		Status        string  `json:"status"`
		Workers       int     `json:"workers"`
		QueueDepth    int     `json:"queue_depth"`
		QueueCapacity int     `json:"queue_capacity"`
		AvgServiceMS  float64 `json:"avg_service_ms"`
	}
	b := body{
		Status:        "ready",
		Workers:       s.eng.Workers(),
		QueueDepth:    s.eng.QueueDepth(),
		QueueCapacity: s.eng.QueueCap(),
		AvgServiceMS:  s.eng.AvgServiceSeconds() * 1e3,
	}
	status := http.StatusOK
	if !s.eng.Ready() {
		status = http.StatusServiceUnavailable
		if s.eng.Draining() {
			b.Status = "draining"
		} else {
			b.Status = "warming"
		}
	}
	writeJSON(w, status, b)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.eng.RenderMetrics(w)
	if s.peers != nil {
		s.peers.renderMetrics(w)
	}
}
