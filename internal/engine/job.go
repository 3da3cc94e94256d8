package engine

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/prefix"
	"repro/internal/qcache"
)

// JobRequest is the submit payload (POST /v1/jobs on the wire). The
// representation, budget and output selection mirror the qsim CLI; all
// budget fields are clamped against the engine caps, so a request can only
// tighten the governor, never evade it.
type JobRequest struct {
	// QASM is the OpenQASM 2.0 source of the circuit to simulate.
	QASM string `json:"qasm"`
	// Representation selects the number representation: "alg" (exact Q[ω],
	// the default) or "float" (complex128 with tolerance Eps; "num" is an
	// accepted alias).
	Representation string `json:"representation,omitempty"`
	// Eps is the interning tolerance for the float representation.
	Eps float64 `json:"eps,omitempty"`
	// Norm selects the normalization scheme: left (default), max or gcd.
	Norm string `json:"norm,omitempty"`

	// Budget fields, clamped to the engine caps (0 = engine default).
	MaxNodes   int   `json:"max_nodes,omitempty"`
	MaxWeights int   `json:"max_weights,omitempty"`
	MaxBytes   int64 `json:"max_bytes,omitempty"`
	TimeoutMS  int64 `json:"timeout_ms,omitempty"`

	// MinFidelity opts the job into fidelity-bounded graceful degradation:
	// when the budget would otherwise refuse the run, the state is
	// approximated (lowest-contribution amplitudes shed) as long as the
	// retained fidelity stays ≥ this floor, and the result reports what was
	// given up. 0 (the default) keeps the exact fail-fast behavior; the
	// engine's MinFidelityFloor raises requests below its own floor.
	// Incompatible with shots — a histogram drawn from an approximated state
	// would be silently biased.
	MinFidelity float64 `json:"min_fidelity,omitempty"`

	// Output selects what the job returns: "amplitudes" (default; the TopK
	// most probable outcomes with exact weight encodings), "stats" (manager
	// counters only), "ddio" (a lossless serialization of the state
	// diagram — the portable certificate), or "histogram" (shot counts;
	// requires Shots > 0 and is the forced default whenever Shots is set).
	Output string `json:"output,omitempty"`
	// TopK bounds the amplitude list (default 16, clamped to the engine cap).
	TopK int `json:"top_k,omitempty"`
	// Shots switches the job into shots mode: the circuit is measured this
	// many times and the result is a histogram. Required (and the only
	// mode allowed) for dynamic circuits — mid-circuit measurement, reset
	// or classical control. Capped by the engine's MaxShots.
	Shots int `json:"shots,omitempty"`
	// Seed selects the deterministic random stream of a shots job. Any
	// non-zero seed makes the histogram reproducible — and therefore
	// cacheable. Seed 0 (the default) means "pick one": the engine draws a
	// random seed, echoes it in the result, and skips the cache.
	Seed int64 `json:"seed,omitempty"`
	// Wait makes the submitting transport block until the job finishes and
	// return the full result, so small jobs need no polling round-trip. The
	// engine itself ignores it — waiting is the transport's job, via Done.
	Wait bool `json:"wait,omitempty"`
}

// Amplitude is one basis-state amplitude of the result: float re/im for
// convenience, probability, and the representation's lossless encoding of
// the exact value (ddio codec format), so "alg" results lose nothing in
// transit.
type Amplitude struct {
	Index uint64  `json:"index"`
	State string  `json:"state"` // |…⟩ bitstring, MSB = highest qubit
	Re    float64 `json:"re"`
	Im    float64 `json:"im"`
	Prob  float64 `json:"prob"`
	Exact string  `json:"exact"`
}

// JobResult is the payload of a finished job.
type JobResult struct {
	Qubits         int         `json:"qubits"`
	Gates          int         `json:"gates"`
	Representation string      `json:"representation"`
	ElapsedMS      float64     `json:"elapsed_ms"`
	Norm2          float64     `json:"norm2"`
	StateNodes     int         `json:"state_nodes"`
	Amplitudes     []Amplitude `json:"amplitudes,omitempty"`
	DDIO           string      `json:"ddio,omitempty"`
	// Shots-mode fields. Histogram maps fixed-width binary keys (the
	// classical register when the circuit measures, the basis index
	// otherwise) to counts; encoding/json sorts map keys, so the envelope
	// bytes are deterministic and cache cleanly. Seed echoes the effective
	// seed — the requested one, or the engine-drawn seed of an unseeded job.
	Histogram map[string]int `json:"histogram,omitempty"`
	Strategy  string         `json:"strategy,omitempty"`
	Shots     int            `json:"shots,omitempty"`
	Seed      int64          `json:"seed,omitempty"`
	// Approximation fields, present only when fidelity-bounded degradation
	// actually fired: the job completed approximately, with the guaranteed
	// retained fidelity (the product of per-event fidelities, ≥ the
	// requested min_fidelity), whether that figure was computed with exact
	// ring arithmetic, and how many approximation events it took. A
	// min_fidelity job that never hit its budget omits all four — its
	// envelope is byte-identical to the exact job's.
	Approximate   bool           `json:"approximate,omitempty"`
	Fidelity      float64        `json:"fidelity,omitempty"`
	FidelityExact bool           `json:"fidelity_exact,omitempty"`
	ApproxEvents  int            `json:"approx_events,omitempty"`
	Stats         *core.Snapshot `json:"stats,omitempty"`
}

// ErrorBody is the structured error shape of every refused or failed job:
// Kind distinguishes the governor refusing work (budget_exceeded, with Limit
// and Peak), malformed circuits (parse_error, with Line), cancellation/
// timeout, and plain request errors. RequestID is stamped by the transport
// on the way out (it identifies one HTTP exchange, not the job record).
type ErrorBody struct {
	Kind      string          `json:"kind"`
	Message   string          `json:"message"`
	Line      int             `json:"line,omitempty"`  // parse_error: offending QASM line
	Limit     string          `json:"limit,omitempty"` // budget_exceeded: nodes|weights|bytes
	Peak      *core.PeakStats `json:"peak,omitempty"`  // budget_exceeded: high-water marks
	RequestID string          `json:"request_id,omitempty"`
}

// Error kinds.
const (
	KindInvalidRequest = "invalid_request"
	KindParseError     = "parse_error"
	KindBudgetExceeded = "budget_exceeded"
	KindCancelled      = "cancelled"
	KindTimeout        = "timeout"
	KindQueueFull      = "queue_full"
	KindShuttingDown   = "shutting_down"
	KindNotFound       = "not_found"
	KindNotFinished    = "not_finished"
	KindTooLarge       = "too_large"
	KindRunError       = "run_error"
)

// Job statuses.
const (
	StatusQueued    = "queued"
	StatusRunning   = "running"
	StatusDone      = "done"
	StatusFailed    = "failed"
	StatusCancelled = "cancelled"
)

// JobView is the wire form of a job record. Cached marks a job whose result
// was served without running the simulation here: a qcache hit, a ring-peer
// fetch, or a submission collapsed onto an identical in-flight job by the
// singleflight layer.
type JobView struct {
	ID         string     `json:"id"`
	RequestID  string     `json:"request_id,omitempty"`
	Status     string     `json:"status"`
	Cached     bool       `json:"cached,omitempty"`
	QueuedAt   time.Time  `json:"queued_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
	Error      *ErrorBody `json:"error,omitempty"`
	Result     *JobResult `json:"result,omitempty"`
}

// flightOutcome is what a leader job publishes to the submissions collapsed
// onto it: the terminal status, the canonical JSON encoding of the result
// envelope (nil on failure), and the error body (nil on success). Followers
// rebuild their JobResult from the same payload bytes the cache stores, so
// every copy of the envelope is byte-identical.
type flightOutcome struct {
	status  string
	payload []byte
	errBody *ErrorBody
}

// Job is the record flowing through the queue, retained for polling. All
// fields are package-private; transports observe a job through ID, Done and
// View. Mutable fields are guarded by the store's mutex; done is closed
// exactly once when the job reaches a terminal status.
type Job struct {
	id   string
	req  JobRequest
	circ *circuit.Circuit
	plan prefix.Plan // a batch job's prefix chain (prefix.Resume)
	// requestID is the transport request id the job was submitted under
	// ("" when the transport sent none). Batch children carry derived ids
	// (<parent>-/v<i>), so a variant's engine-side record is traceable to
	// the batch submission that spawned it.
	requestID string
	done      chan struct{}
	store     *jobStore

	// Cache/singleflight wiring, set at submit time: cacheKey addresses the
	// exact result envelope; approxKey (set only for min_fidelity jobs)
	// addresses the approximate one — finishJob picks by whether
	// approximation actually fired, so exact results always share the exact
	// key. flight is non-nil on a leader and must be completed exactly once
	// when the job reaches a terminal status.
	cacheKey  qcache.Key
	approxKey qcache.Key
	hasApprox bool
	stamp     qcache.Stamp
	cacheable bool
	flight    *qcache.Call[flightOutcome]

	status     string
	cached     bool
	queuedAt   time.Time
	startedAt  time.Time
	finishedAt time.Time
	errBody    *ErrorBody
	result     *JobResult
}

// ID returns the job's record id (stable for the life of the process).
func (j *Job) ID() string { return j.id }

// Done returns a channel closed when the job reaches a terminal status.
func (j *Job) Done() <-chan struct{} { return j.done }

// View snapshots the job's wire form; withResult attaches the payload.
func (j *Job) View(withResult bool) JobView { return j.store.view(j, withResult) }

// recordStore retains records for polling, bounded at cap: once full, the
// oldest finished record is evicted per new submission (unfinished ones are
// never evicted — a worker or scheduler holds their pointer). finished is
// called with mu held.
type recordStore[V any] struct {
	mu       sync.Mutex
	cap      int
	items    map[string]V
	order    []string // insertion order, for eviction
	finished func(V) bool
}

func newRecordStore[V any](capacity int, finished func(V) bool) *recordStore[V] {
	return &recordStore[V]{cap: capacity, items: make(map[string]V), finished: finished}
}

// add registers a new record; it fails only when the store is full of
// unfinished ones.
func (st *recordStore[V]) add(id string, v V) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.order) >= st.cap && !st.evictLocked() {
		return false
	}
	st.items[id] = v
	st.order = append(st.order, id)
	return true
}

// evictLocked removes the oldest finished record, reporting whether one
// existed.
func (st *recordStore[V]) evictLocked() bool {
	for i, id := range st.order {
		if st.finished(st.items[id]) {
			delete(st.items, id)
			st.order = append(st.order[:i], st.order[i+1:]...)
			return true
		}
	}
	return false
}

func (st *recordStore[V]) get(id string) V {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.items[id]
}

// jobStore is the job records' store; its mutex also guards every job's
// mutable fields.
type jobStore struct{ *recordStore[*Job] }

func newJobStore(capacity int) *jobStore {
	return &jobStore{newRecordStore(capacity, func(j *Job) bool {
		return j.status == StatusDone || j.status == StatusFailed || j.status == StatusCancelled
	})}
}

// newID mints a record id: the kind letter ("j" job, "b" batch) and 64
// random bits in hex.
func newID(kind string) string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("engine: id entropy: %v", err))
	}
	return kind + hex.EncodeToString(b[:])
}

// randomSeed draws the non-zero seed of an unseeded shots job (zero is the
// request sentinel for "pick one", so it must never be the pick).
func randomSeed() int64 {
	var b [8]byte
	for {
		if _, err := rand.Read(b[:]); err != nil {
			panic(fmt.Sprintf("engine: seed entropy: %v", err))
		}
		if s := int64(binary.LittleEndian.Uint64(b[:])); s != 0 {
			return s
		}
	}
}

func (st *jobStore) setRunning(j *Job) {
	st.mu.Lock()
	j.status = StatusRunning
	j.startedAt = time.Now()
	st.mu.Unlock()
}

// markCached flags a job whose result was delivered by the cache or flight
// layer instead of a simulation run. Call before finish: waiters read the
// flag as soon as done closes.
func (st *jobStore) markCached(j *Job) {
	st.mu.Lock()
	j.cached = true
	st.mu.Unlock()
}

// finish moves j to a terminal status and wakes waiters. A finished record
// keeps only what its views show: the circuit, its plan and its source are
// dropped, so the job and batch stores retain results, not gate lists or
// chains.
func (st *jobStore) finish(j *Job, status string, res *JobResult, errBody *ErrorBody) {
	st.mu.Lock()
	j.circ = nil
	j.plan = prefix.Plan{}
	j.req.QASM = ""
	j.status = status
	j.result = res
	j.errBody = errBody
	j.finishedAt = time.Now()
	st.mu.Unlock()
	close(j.done)
}

// view snapshots a job's wire form; withResult attaches the payload.
func (st *jobStore) view(j *Job, withResult bool) JobView {
	st.mu.Lock()
	defer st.mu.Unlock()
	v := JobView{ID: j.id, RequestID: j.requestID, Status: j.status, Cached: j.cached, QueuedAt: j.queuedAt, Error: j.errBody}
	if !j.startedAt.IsZero() {
		t := j.startedAt
		v.StartedAt = &t
	}
	if !j.finishedAt.IsZero() {
		t := j.finishedAt
		v.FinishedAt = &t
	}
	if withResult {
		v.Result = j.result
	}
	return v
}
