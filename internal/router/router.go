// Package router implements qrouter, the stateless front tier of a qmddd
// cluster. It consistent-hashes each job's circuit fingerprint onto the
// worker ring — the same canonical fingerprint the workers' result cache is
// keyed by, so every repeat of a circuit lands on the node whose managers
// and cache are already warm for it — probes worker readiness, reroutes
// around missing or draining nodes in ring order, and sheds load early:
// per-tenant token-bucket admission control plus queue-latency shedding,
// both answering 429 with a Retry-After the client can obey.
//
// The router holds no job state. Any number of routers can front the same
// worker list and make identical routing decisions (the ring is a pure
// function of the membership), so the tier scales horizontally and restarts
// are free.
package router

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/circuit"
	"repro/internal/engine"
	"repro/internal/httpx"
	"repro/internal/parsememo"
	"repro/internal/ring"
)

// TenantHeader names the tenant for per-tenant admission control; absent
// means the shared "default" tenant.
const TenantHeader = "X-Tenant"

// WorkerHeader is stamped on every proxied response: which worker served it.
const WorkerHeader = "X-Qmddd-Worker"

// Config tunes the router. Workers is required; everything else defaults.
type Config struct {
	// Workers is the cluster membership: the base URLs jobs are sharded
	// over, normalized by ring.NormalizeMembers. The list must match the
	// -peers list the workers themselves run with, or cache peering will
	// look up the wrong owners. The ring uses ring.DefaultVNodes points per
	// worker, as every worker's peer ring does, so router and peers always
	// agree on a key's owner.
	Workers []string
	// ProbeInterval is the readiness-poll period (default 1s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one readiness probe (default 2s).
	ProbeTimeout time.Duration
	// ShedLatency, when > 0, turns queue-latency shedding on: if the routed
	// worker's estimated wait (queue depth × mean service time, from its
	// readiness probe) exceeds this, the job is refused with 429 and a
	// Retry-After of the estimated wait instead of quietly joining a long
	// queue.
	ShedLatency time.Duration
	// TenantRate, when > 0, enables per-tenant token buckets: each tenant
	// (X-Tenant header; "default" when absent) may submit at this sustained
	// jobs/second with bursts up to TenantBurst. Refusals are 429 with a
	// Retry-After of the time until the next token.
	TenantRate  float64
	TenantBurst float64
	// MaxBodyBytes caps a submitted body (default 1 MiB, matching workers).
	MaxBodyBytes int64
	// AccessLog, when non-nil, receives one structured line per exchange.
	AccessLog io.Writer
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.TenantBurst <= 0 {
		c.TenantBurst = math.Max(1, math.Ceil(c.TenantRate))
	}
	return c
}

// WorkerHealth is one worker's last probe snapshot.
type WorkerHealth struct {
	URL          string    `json:"url"`
	Ready        bool      `json:"ready"`
	QueueDepth   int       `json:"queue_depth"`
	AvgServiceMS float64   `json:"avg_service_ms"`
	Error        string    `json:"error,omitempty"`
	CheckedAt    time.Time `json:"checked_at"`
}

// Router-origin error kinds (worker-origin kinds pass through verbatim).
// Router refusals use the workers' error envelope, engine.ErrorBody, so the
// two decode identically at the client.
const (
	KindRateLimited = "rate_limited"
	KindOverloaded  = "overloaded"
	KindNoWorker    = "no_worker"
	KindBadGateway  = "bad_gateway"
)

// bucket is one tenant's token bucket.
type bucket struct {
	tokens float64
	last   time.Time
}

type metrics struct {
	requests    atomic.Uint64 // job submissions received
	routed      atomic.Uint64 // submissions proxied to a worker
	rerouted    atomic.Uint64 // submissions that skipped ≥1 failed/draining worker
	shedTenant  atomic.Uint64 // refused by a tenant bucket
	shedLatency atomic.Uint64 // refused by queue-latency shedding
	noWorker    atomic.Uint64 // refused with no ready worker
	proxyErrors atomic.Uint64 // individual forward attempts that failed
}

// Router is the front-tier handler. Create with New, serve it, Close it.
type Router struct {
	cfg  Config
	ring *ring.Ring
	mux  *http.ServeMux
	memo *parsememo.Memo // source → parse, so a repeated body is not parsed again

	probe *http.Client
	// forward has no timeout: "wait": true jobs legitimately run for
	// minutes, and the worker's own timeout-cap governor is the budget
	// authority.
	forward *http.Client

	mu      sync.Mutex
	health  map[string]WorkerHealth
	buckets map[string]*bucket

	met  metrics
	stop chan struct{}
	once sync.Once
}

// New builds the router, probes every worker once synchronously (so the
// first request already has a health picture), and starts the background
// prober.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	members, err := ring.NormalizeMembers(cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("router: %w", err)
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("router: at least one worker URL is required")
	}
	cfg.Workers = members
	rt := &Router{
		cfg:     cfg,
		ring:    ring.New(members, ring.DefaultVNodes),
		mux:     http.NewServeMux(),
		probe:   &http.Client{Timeout: cfg.ProbeTimeout},
		forward: &http.Client{},
		health:  make(map[string]WorkerHealth, len(members)),
		buckets: make(map[string]*bucket),
		memo:    parsememo.New(),
		stop:    make(chan struct{}),
	}
	rt.mux.HandleFunc("POST /v1/jobs", rt.handleSubmit)
	rt.mux.HandleFunc("POST /v1/batches", rt.handleBatchSubmit)
	rt.mux.HandleFunc("GET /v1/jobs/{id}", rt.handleJobGet)
	rt.mux.HandleFunc("GET /v1/jobs/{id}/result", rt.handleJobGet)
	rt.mux.HandleFunc("GET /v1/batches/{id}", rt.handleJobGet)
	rt.mux.HandleFunc("GET /v1/cluster", rt.handleCluster)
	rt.mux.HandleFunc("GET /v1/version", rt.handleVersion)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /readyz", rt.handleReadyz)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	rt.ProbeNow()
	go rt.prober()
	return rt, nil
}

// ServeHTTP serves the router API with request-id and access-log middleware.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	httpx.WithRequestID(rt.cfg.AccessLog, rt.mux).ServeHTTP(w, r)
}

// Close stops the background prober.
func (rt *Router) Close() { rt.once.Do(func() { close(rt.stop) }) }

func (rt *Router) prober() {
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.ProbeNow()
		}
	}
}

// ProbeNow polls every worker's /readyz once, concurrently, and updates the
// health table. Exported so tests and operators can force a fresh picture
// instead of waiting out the probe interval.
func (rt *Router) ProbeNow() {
	var wg sync.WaitGroup
	for _, w := range rt.cfg.Workers {
		wg.Add(1)
		go func(worker string) {
			defer wg.Done()
			h := rt.probeOne(worker)
			rt.mu.Lock()
			rt.health[worker] = h
			rt.mu.Unlock()
		}(w)
	}
	wg.Wait()
}

func (rt *Router) probeOne(worker string) WorkerHealth {
	h := WorkerHealth{URL: worker, CheckedAt: time.Now()}
	resp, err := rt.probe.Get(worker + "/readyz")
	if err != nil {
		h.Error = err.Error()
		return h
	}
	defer resp.Body.Close()
	var body struct {
		Status       string  `json:"status"`
		QueueDepth   int     `json:"queue_depth"`
		AvgServiceMS float64 `json:"avg_service_ms"`
	}
	if derr := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&body); derr == nil {
		h.QueueDepth = body.QueueDepth
		h.AvgServiceMS = body.AvgServiceMS
	}
	if resp.StatusCode != http.StatusOK {
		h.Error = fmt.Sprintf("readyz: status %d", resp.StatusCode)
		return h
	}
	h.Ready = true
	return h
}

// healthOf snapshots one worker's health.
func (rt *Router) healthOf(worker string) WorkerHealth {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.health[worker]
}

// Healths snapshots the whole table in membership order.
func (rt *Router) Healths() []WorkerHealth {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]WorkerHealth, 0, len(rt.cfg.Workers))
	for _, w := range rt.ring.Members() {
		out = append(out, rt.health[w])
	}
	return out
}

func (rt *Router) writeError(w http.ResponseWriter, r *http.Request, status int, kind, format string, args ...any) {
	httpx.WriteJSON(w, status, struct {
		Error engine.ErrorBody `json:"error"`
	}{engine.ErrorBody{Kind: kind, Message: fmt.Sprintf(format, args...), RequestID: httpx.RequestIDFrom(r)}})
}

// admit runs the tenant's token bucket. It returns ok, or the wait until the
// next token.
func (rt *Router) admit(tenant string) (bool, time.Duration) {
	if rt.cfg.TenantRate <= 0 {
		return true, 0
	}
	now := time.Now()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	b, ok := rt.buckets[tenant]
	if !ok {
		b = &bucket{tokens: rt.cfg.TenantBurst, last: now}
		rt.buckets[tenant] = b
	}
	b.tokens = math.Min(rt.cfg.TenantBurst, b.tokens+now.Sub(b.last).Seconds()*rt.cfg.TenantRate)
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / rt.cfg.TenantRate * float64(time.Second))
	return false, wait
}

// retryAfter sets the Retry-After header (whole seconds, rounded up, min 1).
func retryAfter(w http.ResponseWriter, wait time.Duration) {
	secs := int64(math.Ceil(wait.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
}

// routeKey derives the ring key for a submission: the fingerprint of the
// job's cache identity when the body parses (whitespace/comment/register-name
// variants of one circuit all route to the same worker — the one whose
// cache has it), otherwise a hash of the raw body (the worker will refuse
// it with a real parse error, which the client deserves to see verbatim).
// An amplitude job (no shots) is cached under its read-out-stripped twin's
// fingerprint, so it routes by that too. The parse and the fingerprints
// come from the memo after the first time.
func (rt *Router) routeKey(body []byte) []byte {
	var req struct {
		QASM  string `json:"qasm"`
		Shots int    `json:"shots"`
	}
	if err := json.Unmarshal(body, &req); err == nil && strings.TrimSpace(req.QASM) != "" {
		if p, err := rt.memo.Parse(req.QASM, "route"); err == nil {
			fp := p.Fingerprint()
			if req.Shots == 0 {
				_, fp = p.Stripped()
			}
			return fp[:]
		}
	}
	sum := sha256.Sum256(body)
	return sum[:]
}

// batchRouteKey derives the ring key for a batch submission: the prefix-hash
// chain link H_k of the batch's shared prefix, so a batch lands on the worker
// whose cache holds (or will hold) the prefix checkpoint — and every other
// batch or solo job extending the same prefix lands there too. Bodies that
// don't parse hash verbatim, like routeKey.
func (rt *Router) batchRouteKey(body []byte) []byte {
	var req struct {
		Base     string   `json:"base"`
		Variants []string `json:"variants"`
	}
	if err := json.Unmarshal(body, &req); err == nil {
		if strings.TrimSpace(req.Base) != "" {
			// Base form: the whole base is the shared prefix; its final chain
			// link is Fingerprint(base), so a solo submission of the base
			// circuit routes to the same owner.
			if p, perr := rt.memo.Parse(req.Base, "route"); perr == nil {
				_, link := p.Stripped()
				return link[:]
			}
		} else if len(req.Variants) > 0 {
			circs := make([]*circuit.Circuit, 0, len(req.Variants))
			for _, src := range req.Variants {
				p, perr := rt.memo.Parse(src, "route")
				if perr != nil {
					circs = nil
					break
				}
				c, _ := p.Stripped()
				circs = append(circs, c)
			}
			if len(circs) > 0 {
				if k := circuit.SharedPrefixLen(circs...); k > 0 {
					link := circuit.Chain(circs[0])[k]
					return link[:]
				}
			}
		}
	}
	sum := sha256.Sum256(body)
	return sum[:]
}

// handleSubmit is the routed job-submission path.
func (rt *Router) handleSubmit(w http.ResponseWriter, r *http.Request) {
	rt.routePost(w, r, "/v1/jobs", rt.routeKey)
}

// handleBatchSubmit routes a batch to the prefix-key ring owner; everything
// past key derivation is the job-submission path.
func (rt *Router) handleBatchSubmit(w http.ResponseWriter, r *http.Request) {
	rt.routePost(w, r, "/v1/batches", rt.batchRouteKey)
}

// routePost is the shared routed-POST path: admission control, ring-ordered
// candidate selection by the derived key, queue-latency shedding, and the
// reroute-on-failure forward loop.
func (rt *Router) routePost(w http.ResponseWriter, r *http.Request, path string, key func([]byte) []byte) {
	rt.met.requests.Add(1)

	tenant := r.Header.Get(TenantHeader)
	if tenant == "" {
		tenant = "default"
	}
	if ok, wait := rt.admit(tenant); !ok {
		rt.met.shedTenant.Add(1)
		retryAfter(w, wait)
		rt.writeError(w, r, http.StatusTooManyRequests, KindRateLimited,
			"tenant %q is over its submission rate (%.3g jobs/s)", tenant, rt.cfg.TenantRate)
		return
	}

	r.Body = http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		rt.writeError(w, r, http.StatusRequestEntityTooLarge, engine.KindTooLarge,
			"request body exceeds %d bytes", rt.cfg.MaxBodyBytes)
		return
	}

	// Ready workers in ring order for this key: the owner first, then the
	// nodes that would own the key if the owner left — the reroute order
	// that preserves cache locality as well as a failure allows.
	owners := rt.ring.Owners(key(body), rt.ring.Len())
	candidates := owners[:0:0]
	for _, o := range owners {
		if rt.healthOf(o).Ready {
			candidates = append(candidates, o)
		}
	}
	if len(candidates) == 0 {
		rt.met.noWorker.Add(1)
		rt.writeError(w, r, http.StatusServiceUnavailable, KindNoWorker, "no ready workers")
		return
	}

	// Queue-latency shedding: refuse early when the target's expected wait
	// (depth × mean service time at last probe) already exceeds the SLO the
	// operator configured, with an honest Retry-After.
	if rt.cfg.ShedLatency > 0 {
		h := rt.healthOf(candidates[0])
		est := time.Duration(float64(h.QueueDepth) * h.AvgServiceMS * float64(time.Millisecond))
		if est > rt.cfg.ShedLatency {
			rt.met.shedLatency.Add(1)
			retryAfter(w, est)
			rt.writeError(w, r, http.StatusTooManyRequests, KindOverloaded,
				"estimated queue wait %v exceeds the shed threshold %v", est.Round(time.Millisecond), rt.cfg.ShedLatency)
			return
		}
	}

	rerouted := false
	for _, worker := range candidates {
		resp, err := rt.forwardPost(r, worker, path, body)
		if err != nil {
			rt.met.proxyErrors.Add(1)
			rerouted = true
			rt.markUnready(worker, err.Error())
			continue
		}
		// 502/503 from a worker means "not me, maybe someone else" (draining,
		// or its own upstream trouble): fall through to the next ring owner.
		if resp.StatusCode == http.StatusBadGateway || resp.StatusCode == http.StatusServiceUnavailable {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			rt.met.proxyErrors.Add(1)
			rerouted = true
			rt.markUnready(worker, fmt.Sprintf("submit: status %d", resp.StatusCode))
			continue
		}
		if rerouted {
			rt.met.rerouted.Add(1)
		}
		rt.met.routed.Add(1)
		rt.relay(w, resp, worker)
		return
	}
	rt.met.noWorker.Add(1)
	rt.writeError(w, r, http.StatusBadGateway, KindBadGateway, "every candidate worker failed")
}

// forwardPost proxies one submission attempt to one worker.
func (rt *Router) forwardPost(r *http.Request, worker string, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, worker+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(httpx.RequestIDHeader, httpx.RequestIDFrom(r))
	if tenant := r.Header.Get(TenantHeader); tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	return rt.forward.Do(req)
}

// markUnready flips a worker unready immediately after a failed forward so
// the requests between now and the next probe skip it too.
func (rt *Router) markUnready(worker, why string) {
	rt.mu.Lock()
	h := rt.health[worker]
	h.URL = worker
	h.Ready = false
	h.Error = why
	h.CheckedAt = time.Now()
	rt.health[worker] = h
	rt.mu.Unlock()
}

// relay copies a worker response to the client, stamping which worker
// served it.
func (rt *Router) relay(w http.ResponseWriter, resp *http.Response, worker string) {
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.Header().Set(WorkerHeader, worker)
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// handleJobGet scatters a job poll across the membership: the router holds
// no job→worker map (it is stateless), so it asks each worker in ring-member
// order and relays the first non-404 answer. Draining workers still serve
// polls, so unready members are asked too — after the ready ones.
func (rt *Router) handleJobGet(w http.ResponseWriter, r *http.Request) {
	members := rt.ring.Members()
	ordered := make([]string, 0, len(members))
	for _, m := range members {
		if rt.healthOf(m).Ready {
			ordered = append(ordered, m)
		}
	}
	for _, m := range members {
		if !rt.healthOf(m).Ready {
			ordered = append(ordered, m)
		}
	}
	for _, worker := range ordered {
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, worker+r.URL.Path, nil)
		if err != nil {
			continue
		}
		req.Header.Set(httpx.RequestIDHeader, httpx.RequestIDFrom(r))
		resp, err := rt.probe.Do(req)
		if err != nil {
			rt.met.proxyErrors.Add(1)
			continue
		}
		if resp.StatusCode == http.StatusNotFound {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			continue
		}
		rt.relay(w, resp, worker)
		return
	}
	rt.writeError(w, r, http.StatusNotFound, engine.KindNotFound, "no worker knows this job id")
}

// handleCluster reports the membership, the ring shape, and every worker's
// latest probe snapshot.
func (rt *Router) handleCluster(w http.ResponseWriter, _ *http.Request) {
	httpx.WriteJSON(w, http.StatusOK, struct {
		Ring    string         `json:"ring"`
		Workers []WorkerHealth `json:"workers"`
	}{rt.ring.String(), rt.Healths()})
}

func (rt *Router) handleVersion(w http.ResponseWriter, _ *http.Request) {
	httpx.WriteJSON(w, http.StatusOK, struct {
		Name string `json:"name"`
		buildinfo.Info
	}{Name: "qrouter", Info: buildinfo.Read()})
}

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	httpx.WriteJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{"ok"})
}

// handleReadyz: the router can do useful work iff some worker can.
func (rt *Router) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	ready := 0
	for _, h := range rt.Healths() {
		if h.Ready {
			ready++
		}
	}
	status := http.StatusOK
	text := "ready"
	if ready == 0 {
		status = http.StatusServiceUnavailable
		text = "no ready workers"
	}
	httpx.WriteJSON(w, status, struct {
		Status       string `json:"status"`
		ReadyWorkers int    `json:"ready_workers"`
		Workers      int    `json:"workers"`
	}{text, ready, rt.ring.Len()})
}

func (rt *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", httpx.MetricsContentType)
	httpx.Counter(w, "qrouter_requests_total", "Job submissions received.", rt.met.requests.Load())
	httpx.Counter(w, "qrouter_routed_total", "Submissions proxied to a worker.", rt.met.routed.Load())
	httpx.Counter(w, "qrouter_rerouted_total", "Submissions that skipped at least one failed or draining worker.", rt.met.rerouted.Load())
	httpx.Counter(w, "qrouter_shed_tenant_total", "Submissions refused by per-tenant admission control.", rt.met.shedTenant.Load())
	httpx.Counter(w, "qrouter_shed_latency_total", "Submissions refused by queue-latency shedding.", rt.met.shedLatency.Load())
	httpx.Counter(w, "qrouter_no_worker_total", "Submissions refused with no usable worker.", rt.met.noWorker.Load())
	httpx.Counter(w, "qrouter_proxy_errors_total", "Individual forward attempts that failed.", rt.met.proxyErrors.Load())
	ms := rt.memo.Stats()
	httpx.Counter(w, "qrouter_parse_memo_hits_total", "Submitted sources found in the parse memo (no parse, no fingerprint).", ms.Hits)
	httpx.Counter(w, "qrouter_parse_memo_misses_total", "Submitted sources parsed because the parse memo did not hold them.", ms.Misses)
	httpx.Gauge(w, "qrouter_parse_memo_entries", "Parsed sources held by the parse memo.", ms.Entries)
	httpx.Gauge(w, "qrouter_parse_memo_bytes", "Bytes accounted to the parse memo (bounded at parsememo.MaxBytes).", ms.Bytes)
	healths := rt.Healths()
	ready := make([]httpx.Labelled, len(healths))
	depth := make([]httpx.Labelled, len(healths))
	for i, h := range healths {
		ready[i] = httpx.Labelled{Label: h.URL, Value: 0}
		if h.Ready {
			ready[i].Value = 1
		}
		depth[i] = httpx.Labelled{Label: h.URL, Value: h.QueueDepth}
	}
	httpx.LabelledFamily(w, "qrouter_worker_ready", "gauge", "Worker readiness at last probe.", "worker", ready)
	httpx.LabelledFamily(w, "qrouter_worker_queue_depth", "gauge", "Worker queue depth at last probe.", "worker", depth)
}

// OwnerOf returns the ring owner for a raw QASM source — which worker a
// direct submission of that circuit would route to (diagnostics and tests).
func (rt *Router) OwnerOf(qasmSrc string) string {
	body, _ := json.Marshal(struct {
		QASM string `json:"qasm"`
	}{qasmSrc})
	return rt.ring.Owner(rt.routeKey(body))
}
