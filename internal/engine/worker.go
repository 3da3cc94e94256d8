package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/alg"
	"repro/internal/core"
	"repro/internal/ddio"
	"repro/internal/num"
	"repro/internal/prefix"
	"repro/internal/sim"
)

// Per-worker simulation state: every worker goroutine owns private managers
// (the PR 3 share-nothing design — no diagram state ever crosses a
// goroutine), kept warm across jobs so repeat traffic reuses allocated
// tables instead of re-growing them. Algebraic managers are keyed by
// normalization scheme; float managers additionally by ε, with a small cap
// since ε is client-chosen.
type workerState struct {
	alg map[core.NormScheme]*core.Manager[alg.Q]
	flo map[floatKey]*core.Manager[complex128]
}

type floatKey struct {
	eps  float64
	norm core.NormScheme
}

// maxFloatManagers caps the per-worker float manager cache; past it the
// cache is dropped wholesale (ε is attacker-chosen, the cache must not be a
// memory leak).
const maxFloatManagers = 8

func newWorkerState() *workerState {
	return &workerState{
		alg: make(map[core.NormScheme]*core.Manager[alg.Q]),
		flo: make(map[floatKey]*core.Manager[complex128]),
	}
}

func (ws *workerState) algManager(norm core.NormScheme, ctSize int) *core.Manager[alg.Q] {
	m, ok := ws.alg[norm]
	if !ok {
		m = core.NewManager[alg.Q](alg.Ring{}, norm, core.WithComputeTableSize(ctSize))
		ws.alg[norm] = m
	}
	return m
}

func (ws *workerState) floatManager(eps float64, norm core.NormScheme, ctSize int) *core.Manager[complex128] {
	k := floatKey{eps: eps, norm: norm}
	m, ok := ws.flo[k]
	if !ok {
		if len(ws.flo) >= maxFloatManagers {
			ws.flo = make(map[floatKey]*core.Manager[complex128])
		}
		m = core.NewManager[complex128](num.NewRing(eps), norm, core.WithComputeTableSize(ctSize))
		ws.flo[k] = m
	}
	return m
}

// worker is one pool goroutine: it drains the bounded queue until the queue
// is closed (graceful shutdown drains what was accepted), running every job
// on its private managers. It signals started once it has entered the drain
// loop — the pool is warm (Ready) when every worker has.
func (e *Engine) worker(id int, started *sync.WaitGroup) {
	defer e.wg.Done()
	ws := newWorkerState()
	started.Done()
	for j := range e.queue {
		e.runJob(id, ws, j)
	}
}

// runJob executes one job end to end: mark running, install the governor,
// simulate, classify the outcome, publish metrics, and scrub the manager
// for the next tenant.
func (e *Engine) runJob(workerID int, ws *workerState, j *Job) {
	// Past the drain deadline (or after a hard stop) accepted-but-unstarted
	// jobs are cancelled, not run.
	if e.runCtx.Err() != nil {
		e.finishJob(j, StatusCancelled, nil, &ErrorBody{
			Kind: KindCancelled, Message: "server shut down before the job started",
		})
		e.met.cancelled.Add(1)
		return
	}
	e.store.setRunning(j)
	e.met.started.Add(1)
	e.met.queueLatency.observe(time.Since(j.queuedAt).Seconds())

	ctx := e.runCtx
	if j.req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(j.req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	budget := core.Budget{
		MaxNodes:   j.req.MaxNodes,
		MaxWeights: j.req.MaxWeights,
		MaxBytes:   j.req.MaxBytes,
	}
	// The hook sits between governor setup and the run so tests can model
	// slow work under an already-ticking deadline.
	if e.cfg.HookRunning != nil {
		e.cfg.HookRunning(j)
	}

	start := time.Now()
	var (
		res     *JobResult
		errBody *ErrorBody
		snap    core.Snapshot
	)
	switch j.req.Representation {
	case "alg":
		m := ws.algManager(j.norm(), e.cfg.CTSize)
		res, errBody, snap = runTyped(ctx, e, m, ddio.AlgCodec{}, j, budget)
		scrub(m)
	default: // "float", validated at submit
		m := ws.floatManager(j.req.Eps, j.norm(), e.cfg.CTSize)
		res, errBody, snap = runTyped(ctx, e, m, ddio.NumCodec{}, j, budget)
		scrub(m)
	}
	busy := time.Since(start)
	e.met.observe(workerID, busy, snap)

	switch {
	case errBody == nil:
		if res != nil && res.Approximate {
			e.met.approximated.Add(1)
			e.met.approxEvents.Add(uint64(res.ApproxEvents))
			e.met.fidelityGivenUp.add(1 - res.Fidelity)
		}
		e.finishJob(j, StatusDone, res, nil)
		e.met.completed.Add(1)
	case errBody.Kind == KindCancelled || errBody.Kind == KindTimeout:
		e.finishJob(j, StatusCancelled, nil, errBody)
		e.met.cancelled.Add(1)
	default:
		e.finishJob(j, StatusFailed, nil, errBody)
		e.met.failed.Add(1)
	}
}

// finishJob is the terminal transition for every job that owns (or owned) a
// queue slot. On success it encodes the result envelope once, stores it in
// the cache (successes only — budget refusals, timeouts and run errors are
// never cached), and publishes the same bytes to the flight so followers and
// future cache hits all serve a byte-identical envelope. The flight is
// always completed, on every path, so followers never hang.
func (e *Engine) finishJob(j *Job, status string, res *JobResult, errBody *ErrorBody) {
	var payload []byte
	if status == StatusDone && res != nil {
		if b, err := json.Marshal(res); err == nil {
			payload = b
			if j.cacheable {
				// An approximate envelope is valid only for the same floor and
				// memory budget; an exact one (approximation never fired)
				// serves every request for this circuit.
				key := j.cacheKey
				if res.Approximate && j.hasApprox {
					key = j.approxKey
				}
				e.cache.Put(key, payload, j.stamp)
			}
		}
	}
	e.store.finish(j, status, res, errBody)
	if j.flight != nil {
		j.flight.Complete(flightOutcome{status: status, payload: payload, errBody: errBody}, status == StatusDone && payload != nil)
	}
}

// norm returns the job's validated normalization scheme (submit rejected
// unparsable values, so this cannot fail).
func (j *Job) norm() core.NormScheme {
	n, _ := core.ParseNormScheme(j.req.Norm)
	return n
}

// scrub resets a warm manager between tenants: the budget is lifted, every
// node is swept (a prune with no roots also clears the compute table and
// releases interned weights), and the peak clock is rebased so the next
// job's governor reports its own peaks.
func scrub[T any](m *core.Manager[T]) {
	m.SetBudget(core.Budget{})
	m.SetContext(nil)
	m.Prune()
	m.ResetPeaks()
}

// prefixStore builds the per-job checkpoint store, or nil when the
// subsystem is off: no cache, or checkpointing disabled by a negative
// -checkpoint-every. The store is a cheap value — binding it per job keeps
// the worker free of per-(repr, ε, norm) bookkeeping.
func prefixStore[T any](e *Engine, codec ddio.Codec[T], j *Job) *prefix.Store[T] {
	if e.cfg.CheckpointEvery <= 0 || !e.cache.Enabled() {
		return nil
	}
	return prefix.NewStore(e.cache, j.req.Representation, j.req.Eps, j.norm(), codec)
}

// runTyped runs one job on a concrete representation. It returns the result
// or a classified error body, plus the manager snapshot observed right after
// the run (before the scrub) for worker metrics.
func runTyped[T any](ctx context.Context, e *Engine, m *core.Manager[T], codec ddio.Codec[T], j *Job, budget core.Budget) (*JobResult, *ErrorBody, core.Snapshot) {
	m.SetBudget(budget)
	m.ResetPeaks()
	if j.req.Shots > 0 {
		return runShots(ctx, m, j)
	}
	simr := sim.New(m, j.circ.N)
	if j.req.MinFidelity > 0 {
		simr.EnableApproximation(sim.ApproxPolicy{MinFidelity: j.req.MinFidelity})
	}

	// Prefix checkpointing: resume from the longest cached prefix of this
	// circuit, and snapshot the state at policy-chosen prefixes during the
	// run so future extensions warm-start too. Warm and cold runs produce
	// byte-identical results — a checkpoint is the exact state, decoded into
	// canonical diagrams.
	pol := prefix.Policy{EveryK: e.cfg.CheckpointEvery, MaxBytes: e.cfg.CheckpointBytes}
	from, hook := prefix.Resume(prefixStore(e, codec, j), simr, j.circ, pol, func(n int) {
		e.met.checkpointsStored.Add(1)
		e.met.checkpointBytes.Add(uint64(n))
	})
	if from > 0 {
		e.met.prefixHits.Add(1)
		e.met.prefixGatesSkipped.Add(uint64(from))
	}

	start := time.Now()
	err := simr.RunFromCtx(ctx, j.circ, from, hook)
	elapsed := time.Since(start)
	snap := m.Snapshot()
	if err != nil {
		return nil, classify(err), snap
	}
	res := &JobResult{
		Qubits:         j.circ.N,
		Gates:          j.circ.Len(),
		Representation: j.req.Representation,
		ElapsedMS:      float64(elapsed) / float64(time.Millisecond),
		Norm2:          m.Norm2(simr.State),
		StateNodes:     simr.State.NodeCount(),
		Stats:          &snap,
	}
	if ap := simr.Approximation(); ap.Events > 0 {
		res.Approximate = true
		res.Fidelity = ap.Fidelity
		res.FidelityExact = ap.Exact
		res.ApproxEvents = ap.Events
	}
	switch j.req.Output {
	case "stats":
		// counters only
	case "ddio":
		var sb strings.Builder
		if werr := ddio.Write(&sb, m, codec, simr.State, j.circ.N); werr != nil {
			return nil, &ErrorBody{Kind: KindRunError, Message: fmt.Sprintf("serializing result: %v", werr)}, snap
		}
		res.DDIO = sb.String()
	default: // "amplitudes"
		idxs, probs := m.TopOutcomes(simr.State, j.circ.N, j.req.TopK)
		for i, idx := range idxs {
			amp := m.Amplitude(simr.State, j.circ.N, idx)
			c := m.R.Complex128(amp)
			res.Amplitudes = append(res.Amplitudes, Amplitude{
				Index: idx,
				State: fmt.Sprintf("%0*b", j.circ.N, idx),
				Re:    real(c),
				Im:    imag(c),
				Prob:  probs[i],
				Exact: codec.Encode(amp),
			})
		}
	}
	return res, nil, snap
}

// runShots runs a histogram job through the sim shots engine. The strategy
// is resolved from the circuit shape (one simulation plus N draws when it
// is static, per-shot re-simulation with projective collapse when it is
// dynamic); the effective seed was fixed at submit time, so the histogram
// — and the whole envelope — is a deterministic function of the request.
func runShots[T any](ctx context.Context, m *core.Manager[T], j *Job) (*JobResult, *ErrorBody, core.Snapshot) {
	start := time.Now()
	sr, err := sim.SampleShotsCtx(ctx, m, j.circ, sim.ShotOptions{
		Shots: j.req.Shots,
		Seed:  j.req.Seed,
	})
	elapsed := time.Since(start)
	snap := m.Snapshot()
	if err != nil {
		return nil, classify(err), snap
	}
	return &JobResult{
		Qubits:         j.circ.N,
		Gates:          j.circ.Len(),
		Representation: j.req.Representation,
		ElapsedMS:      float64(elapsed) / float64(time.Millisecond),
		Histogram:      sr.Counts,
		Strategy:       sr.Strategy,
		Shots:          sr.Shots,
		Seed:           j.req.Seed,
		Stats:          &snap,
	}, nil, snap
}

// classify maps a simulation error onto the wire taxonomy: the governor's
// budget refusals keep their limit and peak statistics, context outcomes
// become cancellation/timeout, and anything else is a run error (e.g. a
// gate not exactly representable in the algebraic ring).
func classify(err error) *ErrorBody {
	var be *core.BudgetError
	if errors.As(err, &be) {
		peak := be.Peak
		return &ErrorBody{
			Kind:    KindBudgetExceeded,
			Message: err.Error(),
			Limit:   be.Limit,
			Peak:    &peak,
		}
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return &ErrorBody{Kind: KindTimeout, Message: err.Error()}
	}
	if errors.Is(err, context.Canceled) {
		return &ErrorBody{Kind: KindCancelled, Message: err.Error()}
	}
	return &ErrorBody{Kind: KindRunError, Message: err.Error()}
}
