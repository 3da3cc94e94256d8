// Package engine is the transport-free heart of the qmddd simulation
// service: a bounded job queue drained by a fixed pool of workers with
// private warm managers (the share-nothing design of the sweep pool), a
// per-request governor clamped against engine-wide caps, the two-tier
// content-addressed result cache with singleflight dedup, and the metrics
// the observability surface exports.
//
// The engine knows nothing about HTTP. internal/server wraps it in the
// worker-node HTTP/JSON transport (cmd/qmddd); internal/router shards
// requests across many engines by consistent-hashing their circuit
// fingerprints (cmd/qrouter). Splitting engine from transport is what makes
// that tier possible: both binaries share one simulation core, and every
// behavior worth testing — validation, caching, dedup, draining, peer
// adoption — is exercisable without a socket.
package engine

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/parsememo"
	"repro/internal/prefix"
	"repro/internal/qasm"
	"repro/internal/qcache"
)

// Config tunes the engine. Zero values select the documented defaults; the
// *Cap fields are engine-side ceilings that request budget fields are
// clamped against.
type Config struct {
	// Workers is the worker-pool size (default: GOMAXPROCS).
	Workers int
	// QueueSize bounds the job queue (default 64). A full queue refuses
	// submissions with RejectBusy.
	QueueSize int
	// MaxJobs caps retained job records (default 1024).
	MaxJobs int
	// MaxQubits caps the circuit width (default 64 — basis-state indices are
	// uint64 on the wire).
	MaxQubits int
	// MaxShots caps the shot count of a histogram job (default 1<<20).
	// Requests above the cap are rejected, not clamped — fewer shots is a
	// different histogram, not a tightened version of the same one.
	MaxShots int

	// NodeCap / WeightCap / ByteCap / TimeoutCap clamp the per-request
	// budget: a request asking for more (or for nothing, when a cap is set)
	// gets the cap. Zero leaves the dimension unlimited by default.
	NodeCap    int
	WeightCap  int
	ByteCap    int64
	TimeoutCap time.Duration

	// MinFidelityFloor is the engine-side floor for fidelity-bounded
	// approximation: a min_fidelity request below it is raised to it, so an
	// operator can bound how much fidelity any client may trade away. Zero
	// imposes no floor. It never turns approximation on by itself — jobs
	// without min_fidelity stay exact.
	MinFidelityFloor float64

	// CacheBytes caps the in-memory result-cache tier; zero disables it.
	// CacheDir, when non-empty, enables the disk tier: finished result
	// envelopes persist across restarts under repr/ε/norm-stamped headers.
	// With both zero/empty the cache is off entirely (singleflight dedup of
	// concurrent identical submissions stays on — it costs nothing).
	CacheBytes int64
	CacheDir   string
	// CacheMaxBytes, when positive, bounds the disk tier: after every store
	// the least-recently-used entries are evicted until the tier fits.
	// Without it a long-running checkpoint-heavy worker fills the disk.
	CacheMaxBytes int64

	// CheckpointEvery is the prefix-checkpoint cadence: during an exact
	// amplitude-mode run the state QMDD is snapshotted into the cache every
	// K gates (and at peak-node high-water marks, and at the end of the
	// unitary prefix), keyed by the circuit's prefix-hash chain link, so
	// later runs of any circuit extending the same prefix warm-start from
	// gate k instead of gate 0. Zero selects the default (64); negative
	// disables checkpointing. It is inert without a cache.
	CheckpointEvery int
	// CheckpointBytes caps one checkpoint's serialized size; oversized
	// snapshots are skipped, not truncated. Zero selects the default
	// (4 MiB); negative means unlimited.
	CheckpointBytes int64

	// MaxBatchVariants caps the variant count of one POST /v1/batches
	// submission (default 128).
	MaxBatchVariants int

	// HookBatchChild, when set, is invoked as each child job of a batch is
	// submitted (index -1 for the shared-prefix job). The server uses it to
	// emit one access-log line per child, so logs reconstruct a batch end
	// to end through the derived request ids.
	HookBatchChild func(b *Batch, index int, j *Job)

	// PeerLookup, when set, is consulted on a local cache miss before the
	// job is queued for simulation: it should fetch the stamped envelope for
	// the key from ring peers (the nodes that owned the key before a
	// topology change) and return the validated payload. The transport owns
	// fetching and validation; the engine owns adoption — a hit is stored in
	// the local cache, completes the singleflight, and serves the submission
	// as cached. Only the elected flight leader calls it, so a stampede of
	// identical submissions costs one peer fetch.
	PeerLookup func(key qcache.Key, stamp qcache.Stamp) ([]byte, bool)

	// HookRunning, when set (tests only), is invoked on the worker goroutine
	// as soon as a job transitions to running.
	HookRunning func(*Job)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	if c.MaxQubits <= 0 || c.MaxQubits > 64 {
		c.MaxQubits = 64
	}
	if c.MaxShots <= 0 {
		c.MaxShots = 1 << 20
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 64
	}
	if c.CheckpointBytes == 0 {
		c.CheckpointBytes = 4 << 20
	}
	if c.MaxBatchVariants <= 0 {
		c.MaxBatchVariants = 128
	}
	return c
}

// maxTopK caps a request's amplitude list length.
const maxTopK = 4096

// RejectReason classifies a refused submission; the transport maps it onto
// its own status vocabulary (HTTP: 400 / 503 / 429).
type RejectReason int

const (
	// RejectInvalid: the request is malformed (validation or parse error).
	RejectInvalid RejectReason = iota + 1
	// RejectDraining: the engine is shutting down and accepts no new work.
	RejectDraining
	// RejectBusy: the queue or the job store is full — back off and retry.
	RejectBusy
)

// SubmitError is a refused submission: a transport-mappable reason plus the
// structured error body to serve.
type SubmitError struct {
	Reason RejectReason
	Body   ErrorBody
}

func (e *SubmitError) Error() string { return e.Body.Message }

// Engine is the worker pool plus its queue, store, cache and metrics.
// Create with New, submit with Submit, and call Shutdown to drain.
type Engine struct {
	cfg     Config
	store   *jobStore
	met     *metrics
	queue   chan *Job
	cache   *qcache.Cache // nil when both tiers are disabled (nil-safe API)
	flight  *qcache.Flight[flightOutcome]
	batches *recordStore[*Batch]
	memo    *parsememo.Memo // request source → parse and fingerprints

	mu     sync.Mutex // guards closed + queue sends vs. close(queue)
	closed bool

	warm atomic.Bool // all pool workers have entered their drain loop

	wg        sync.WaitGroup
	runCtx    context.Context // cancelled at the drain deadline
	cancelRun context.CancelFunc
}

// New builds the engine and starts its workers. It fails only when the
// configured cache directory cannot be created.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	cache, err := qcache.NewBounded(cfg.CacheBytes, cfg.CacheDir, cfg.CacheMaxBytes)
	if err != nil {
		return nil, fmt.Errorf("opening result cache: %w", err)
	}
	e := &Engine{
		cfg:     cfg,
		store:   newJobStore(cfg.MaxJobs),
		met:     newMetrics(cfg.Workers),
		queue:   make(chan *Job, cfg.QueueSize),
		cache:   cache,
		flight:  qcache.NewFlight[flightOutcome](),
		batches: newRecordStore(256, (*Batch).finished),
		memo:    parsememo.New(),
	}
	e.runCtx, e.cancelRun = context.WithCancel(context.Background())
	var started sync.WaitGroup
	for i := 0; i < cfg.Workers; i++ {
		e.wg.Add(1)
		started.Add(1)
		go e.worker(i, &started)
	}
	go func() {
		started.Wait()
		e.warm.Store(true)
	}()
	return e, nil
}

// Shutdown drains the engine: intake stops immediately (submissions are
// refused with RejectDraining), workers finish the accepted jobs, and jobs
// still unfinished at the drain deadline are cancelled cooperatively through
// the governor. It returns once every worker has exited — always cleanly,
// so a supervised process can exit 0.
func (e *Engine) Shutdown(drain time.Duration) {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.queue)
	}
	e.mu.Unlock()

	done := make(chan struct{})
	go func() { e.wg.Wait(); close(done) }()
	t := time.NewTimer(drain)
	defer t.Stop()
	select {
	case <-done:
	case <-t.C:
		e.cancelRun() // in-flight jobs unwind through the governor
		<-done
	}
	e.cancelRun()
}

// Draining reports whether Shutdown has begun (intake closed).
func (e *Engine) Draining() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}

// Ready reports whether the engine can accept and run work: the worker pool
// is warm (every worker goroutine has started draining the queue) and the
// engine is not shutting down. A live-but-unready engine is exactly what a
// router's readiness probe must eject: still able to finish accepted jobs,
// no longer a target for new ones.
func (e *Engine) Ready() bool { return e.warm.Load() && !e.Draining() }

// DrainContext returns the context cancelled at the drain deadline —
// introspection for tests that model slow jobs against a hard stop.
func (e *Engine) DrainContext() context.Context { return e.runCtx }

// QueueDepth returns the number of jobs waiting in the bounded queue.
func (e *Engine) QueueDepth() int { return len(e.queue) }

// QueueCap returns the bounded queue's capacity.
func (e *Engine) QueueCap() int { return e.cfg.QueueSize }

// Workers returns the worker-pool size.
func (e *Engine) Workers() int { return e.cfg.Workers }

// Job returns the retained record for id, or nil.
func (e *Engine) Job(id string) *Job { return e.store.get(id) }

// CacheRaw returns the stamped disk-tier envelope for key verbatim — what
// this node serves to a ring peer. Misses (including memory-only caches)
// return false.
func (e *Engine) CacheRaw(key qcache.Key) ([]byte, bool) { return e.cache.GetRaw(key) }

// CacheStats snapshots the result-cache counters.
func (e *Engine) CacheStats() qcache.Stats { return e.cache.Stats() }

// Submit validates, deduplicates and enqueues one job. On acceptance the
// returned Job is live: wait on Done, then View(true) for the result. A
// cache or peer hit returns a Job born finished with Cached set in its view.
// A refusal returns a *SubmitError with the transport-mappable reason.
func (e *Engine) Submit(req JobRequest) (*Job, *SubmitError) {
	jc, errBody := e.validate(&req)
	if errBody != nil {
		return nil, &SubmitError{Reason: RejectInvalid, Body: *errBody}
	}
	return e.submit(req, jc, "")
}

// jobCircuit is the circuit a job runs and its fingerprint, the circuit
// component of the job's cache key. A batch job also carries its prefix
// plan, computed once at submit; a solo job's is the zero Plan, and the
// worker computes it when checkpointing is on.
type jobCircuit struct {
	circ *circuit.Circuit
	fp   [sha256.Size]byte
	plan prefix.Plan
}

// submit is Submit past validation, with the hook the batch scheduler
// needs: a request id recorded on the job so access logs can attribute
// batch children. req must already be normalized and jc checked.
func (e *Engine) submit(req JobRequest, jc jobCircuit, rid string) (*Job, *SubmitError) {
	// A seeded shots job is a pure function of its request, so it caches
	// like any other. An unseeded one is sampled fresh every time: the
	// engine draws the seed (echoed in the result for reproduction), and
	// the random seed keys it away from every concurrent duplicate too.
	seeded := req.Shots == 0 || req.Seed != 0
	if req.Shots > 0 && req.Seed == 0 {
		req.Seed = randomSeed()
	}

	ident := identity(&req, jc.fp)
	cacheKey := ident.Key()
	stamp := ident.Stamp()

	// A min_fidelity job has a second address: the approximate envelope,
	// which additionally depends on the floor and on the clamped memory
	// budgets (they decide where approximation fires). The exact key is
	// consulted first — an exact result trivially satisfies any fidelity
	// floor — then the approximate one.
	var approxKey qcache.Key
	hasApprox := req.MinFidelity > 0
	if hasApprox {
		aident := ident
		aident.MinFidelity = req.MinFidelity
		aident.MaxNodes = req.MaxNodes
		aident.MaxWeights = req.MaxWeights
		aident.MaxBytes = req.MaxBytes
		approxKey = aident.Key()
	}
	keys := []struct {
		key qcache.Key
		on  bool
	}{{cacheKey, true}, {approxKey, hasApprox}}
	for _, k := range keys {
		if !k.on {
			continue
		}
		if payload, ok := e.cache.Get(k.key, stamp); ok {
			if res, err := decodeResult(payload); err == nil {
				return e.cachedJob(req, res, rid), nil
			}
			// Undecodable payload (should be impossible past the checksums):
			// treat as a miss and recompute.
		}
	}

	// Singleflight: concurrent identical submissions elect one leader that
	// runs the simulation; the rest mirror its outcome. The flight key folds
	// the clamped budgets in, so a follower can never inherit a
	// budget_exceeded verdict it did not ask for.
	fid := qcache.FlightID{
		Identity:    ident,
		MaxNodes:    req.MaxNodes,
		MaxWeights:  req.MaxWeights,
		MaxBytes:    req.MaxBytes,
		TimeoutMS:   req.TimeoutMS,
		MinFidelity: req.MinFidelity,
	}
	call, leader := e.flight.Join(fid.Key())

	// Cache peering: before paying for a simulation, the elected leader asks
	// the nodes that owned this key before a topology change. The transport
	// validates the envelope (sha256 + stamp); the engine adopts the payload
	// into its own cache so the key is local from now on.
	if leader && e.cfg.PeerLookup != nil {
		for _, k := range keys {
			if !k.on {
				continue
			}
			if payload, ok := e.cfg.PeerLookup(k.key, stamp); ok {
				if res, err := decodeResult(payload); err == nil {
					e.cache.Put(k.key, payload, stamp)
					e.met.peerHits.Add(1)
					call.Complete(flightOutcome{status: StatusDone, payload: payload}, true)
					return e.cachedJob(req, res, rid), nil
				}
			}
		}
	}

	j := &Job{
		id:        newID("j"),
		req:       req,
		circ:      jc.circ,
		plan:      jc.plan,
		requestID: rid,
		done:      make(chan struct{}),
		store:     e.store,
		status:    StatusQueued,
		queuedAt:  time.Now(),
	}
	if leader {
		j.cacheKey = cacheKey
		j.approxKey = approxKey
		j.hasApprox = hasApprox
		j.stamp = stamp
		j.cacheable = seeded
		j.flight = call
	}

	// Enqueue under the intake lock: after Shutdown flips closed, no send
	// can race the close of the queue channel.
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		body := ErrorBody{Kind: KindShuttingDown, Message: "server is draining"}
		if leader {
			call.Complete(flightOutcome{status: StatusCancelled, errBody: &body}, false)
		}
		return nil, &SubmitError{Reason: RejectDraining, Body: body}
	}
	if !e.store.add(j.id, j) {
		e.mu.Unlock()
		e.met.rejected.Add(1)
		body := ErrorBody{Kind: KindQueueFull, Message: "job store is full of unfinished jobs"}
		if leader {
			call.Complete(flightOutcome{status: StatusCancelled, errBody: &body}, false)
		}
		return nil, &SubmitError{Reason: RejectBusy, Body: body}
	}
	if !leader {
		// Follower: no queue slot, no worker — a mirror goroutine copies the
		// leader's outcome into this record when the flight completes.
		e.mu.Unlock()
		e.met.deduped.Add(1)
		e.wg.Add(1)
		go e.mirror(j, call)
	} else {
		select {
		case e.queue <- j:
			e.mu.Unlock()
		default:
			e.mu.Unlock()
			e.met.rejected.Add(1)
			body := ErrorBody{Kind: KindQueueFull, Message: fmt.Sprintf("queue full (%d jobs waiting)", e.cfg.QueueSize)}
			e.finishJob(j, StatusCancelled, nil, &body)
			return nil, &SubmitError{Reason: RejectBusy, Body: body}
		}
	}
	return j, nil
}

// identity is the content address of a normalized job: the circuit
// fingerprint (comment-, whitespace- and register-name-insensitive) plus
// everything else that shapes the result envelope. Budgets are deliberately
// excluded — a success computed under any budget is valid under every
// budget.
func identity(req *JobRequest, fp [sha256.Size]byte) qcache.Identity {
	return qcache.Identity{
		Circuit: fp,
		Repr:    req.Representation,
		Norm:    req.Norm,
		Eps:     req.Eps,
		Output:  req.Output,
		TopK:    req.TopK,
		Shots:   req.Shots,
		Seed:    req.Seed,
	}
}

// decodeResult rebuilds a result envelope from its canonical JSON payload —
// the bytes the cache stores and the flight hands to followers. Re-encoding
// the decoded struct reproduces the payload exactly, so every response built
// from it is byte-identical to the one the original run produced.
func decodeResult(payload []byte) (*JobResult, error) {
	var res JobResult
	if err := json.Unmarshal(payload, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// cachedJob answers a submission from a cache, peer or flight hit: a
// synthetic job record born finished, flagged cached, retained for polling
// on a best-effort basis (a full store or a draining engine still serves the
// job handle, it just isn't pollable afterwards).
func (e *Engine) cachedJob(req JobRequest, res *JobResult, rid string) *Job {
	req.QASM = "" // a finished record keeps no source (jobStore.finish)
	now := time.Now()
	j := &Job{
		id:         newID("j"),
		req:        req,
		requestID:  rid,
		done:       make(chan struct{}),
		store:      e.store,
		status:     StatusDone,
		cached:     true,
		queuedAt:   now,
		finishedAt: now,
		result:     res,
	}
	close(j.done)
	e.mu.Lock()
	if !e.closed {
		e.store.add(j.id, j)
	}
	e.mu.Unlock()
	return j
}

// mirror finishes a follower job with the outcome of the flight it joined.
// It runs on its own goroutine (registered on e.wg so Shutdown waits for it;
// the leader always completes its call — workers drain every accepted job —
// so mirrors cannot leak).
func (e *Engine) mirror(j *Job, call *qcache.Call[flightOutcome]) {
	defer e.wg.Done()
	<-call.Done()
	out, ok := call.Outcome()
	if ok {
		if res, err := decodeResult(out.payload); err == nil {
			e.store.markCached(j)
			e.store.finish(j, StatusDone, res, nil)
			return
		}
		out.status = StatusFailed
		out.errBody = &ErrorBody{Kind: KindRunError, Message: "deduplicated result payload was undecodable"}
	}
	e.store.finish(j, out.status, nil, out.errBody)
}

// validate normalizes and checks a request, returning the circuit the job
// runs. The parse and the fingerprints come from the memo, so a repeated
// source is neither parsed nor fingerprinted again.
func (e *Engine) validate(req *JobRequest) (jobCircuit, *ErrorBody) {
	if strings.TrimSpace(req.QASM) == "" {
		return jobCircuit{}, &ErrorBody{Kind: KindInvalidRequest, Message: "qasm is required"}
	}
	if errBody := e.normalizeRequest(req); errBody != nil {
		return jobCircuit{}, errBody
	}
	p, errBody := e.parse(req.QASM, "request")
	if errBody != nil {
		return jobCircuit{}, errBody
	}
	if errBody := e.checkCircuit(req, p.Circuit(), p.Dynamic()); errBody != nil {
		return jobCircuit{}, errBody
	}
	if req.Shots == 0 {
		// Amplitude/stats/ddio outputs describe the pre-measurement state:
		// the job runs the measure-free twin and shares its cache key.
		c, fp := p.Stripped()
		return jobCircuit{circ: c, fp: fp}, nil
	}
	return jobCircuit{circ: p.Circuit(), fp: p.Fingerprint()}, nil
}

// parse looks src up in the parse memo, parsing it under name on a miss.
// A parse failure becomes a parse_error body carrying the offending line.
func (e *Engine) parse(src, name string) (*parsememo.Parsed, *ErrorBody) {
	p, err := e.memo.Parse(src, name)
	if err != nil {
		body := &ErrorBody{Kind: KindParseError, Message: err.Error()}
		var pe *qasm.ParseError
		if errors.As(err, &pe) {
			body.Line = pe.Line
		}
		return nil, body
	}
	return p, nil
}

// normalizeRequest is the parse-free half of validation: representation,
// tolerance, norm, output shape, budgets and fidelity floor are checked and
// canonicalized in place. The batch path runs it once on the shared request
// template; Submit runs it per job through validate.
func (e *Engine) normalizeRequest(req *JobRequest) *ErrorBody {
	invalid := func(format string, args ...any) *ErrorBody {
		return &ErrorBody{Kind: KindInvalidRequest, Message: fmt.Sprintf(format, args...)}
	}
	switch req.Representation {
	case "", "alg":
		req.Representation = "alg"
	case "float", "num":
		req.Representation = "float"
	default:
		return invalid("unknown representation %q (want alg or float)", req.Representation)
	}
	if req.Eps < 0 {
		return invalid("eps must be non-negative")
	}
	norm, err := core.ParseNormScheme(req.Norm)
	if err != nil {
		return invalid("%v", err)
	}
	req.Norm = norm.String() // canonical name ("" → "left") keys the cache
	if req.Shots < 0 {
		return invalid("shots must be non-negative")
	}
	if req.Shots > e.cfg.MaxShots {
		return invalid("shots %d exceeds the server cap %d", req.Shots, e.cfg.MaxShots)
	}
	if req.Shots > 0 {
		// Shots mode: the histogram is the only envelope, and TopK plays no
		// part in it — both are pinned so equivalent requests share one
		// cache key.
		switch req.Output {
		case "", "histogram":
			req.Output = "histogram"
		default:
			return invalid("output %q is incompatible with shots; a shots job returns a histogram", req.Output)
		}
		req.TopK = 0
	} else {
		switch req.Output {
		case "", "amplitudes":
			req.Output = "amplitudes"
		case "stats", "ddio":
		case "histogram":
			return invalid("output histogram requires shots > 0")
		default:
			return invalid("unknown output %q (want amplitudes, stats, ddio or histogram)", req.Output)
		}
		if req.TopK < 0 {
			return invalid("top_k must be non-negative")
		}
		if req.TopK == 0 {
			req.TopK = 16
		}
		req.TopK = min(req.TopK, maxTopK)
	}
	if req.MaxNodes < 0 || req.MaxWeights < 0 || req.MaxBytes < 0 || req.TimeoutMS < 0 {
		return invalid("budget fields must be non-negative")
	}
	if req.MinFidelity < 0 || req.MinFidelity > 1 {
		return invalid("min_fidelity must be in [0, 1]")
	}
	if req.MinFidelity == 1 {
		// A floor of 1 permits shedding nothing: exact semantics, and the
		// exact cache key.
		req.MinFidelity = 0
	}
	if req.MinFidelity > 0 {
		if req.Shots > 0 {
			return invalid("min_fidelity is incompatible with shots: a histogram drawn from an approximated state is silently biased")
		}
		if f := e.cfg.MinFidelityFloor; f > 0 && req.MinFidelity < f {
			req.MinFidelity = f
		}
	}
	req.MaxNodes = clampInt(req.MaxNodes, e.cfg.NodeCap)
	req.MaxWeights = clampInt(req.MaxWeights, e.cfg.WeightCap)
	req.MaxBytes = clampInt64(req.MaxBytes, e.cfg.ByteCap)
	if cap := e.cfg.TimeoutCap; cap > 0 {
		capMS := int64(cap / time.Millisecond)
		if req.TimeoutMS <= 0 || req.TimeoutMS > capMS {
			req.TimeoutMS = capMS
		}
	}
	return nil
}

// checkCircuit applies the engine's circuit-level checks to an
// already-normalized request: the width cap, the static-circuit requirement
// of amplitude mode (dynamic is circ.Dynamic(), memoized by the caller),
// and the classical-bit cap of a histogram key. An amplitude-mode job then
// runs the circuit's StripReadout form, so it shares a cache key with its
// measure-free twin.
func (e *Engine) checkCircuit(req *JobRequest, circ *circuit.Circuit, dynamic bool) *ErrorBody {
	invalid := func(format string, args ...any) *ErrorBody {
		return &ErrorBody{Kind: KindInvalidRequest, Message: fmt.Sprintf(format, args...)}
	}
	if circ.N > e.cfg.MaxQubits {
		return invalid("circuit has %d qubits, server cap is %d", circ.N, e.cfg.MaxQubits)
	}
	if req.Shots == 0 {
		if dynamic {
			return invalid("circuit contains mid-circuit measurement, reset or classical control; submit with shots > 0 to run it")
		}
	} else if circ.Cbits > 64 {
		return invalid("circuit uses %d classical bits; the histogram key is capped at 64", circ.Cbits)
	}
	return nil
}

// clampInt applies a server cap to a request value: 0 (unset) takes the cap,
// anything above the cap is clamped down.
func clampInt(v, cap int) int {
	if cap > 0 && (v <= 0 || v > cap) {
		return cap
	}
	return v
}

func clampInt64(v, cap int64) int64 {
	if cap > 0 && (v <= 0 || v > cap) {
		return cap
	}
	return v
}
