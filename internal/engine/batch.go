package engine

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/circuit"
	"repro/internal/parsememo"
	"repro/internal/qcache"
)

// BatchRequest is the POST /v1/batches payload: N variant circuits sharing
// one prefix, which the engine simulates exactly once (a checkpointed
// prefix job) before fanning the variants out as ordinary jobs that
// warm-start from the checkpoint. Two forms are accepted, exactly one of
// which must be used:
//
//   - base + suffixes: Base is a complete OpenQASM program whose gate list
//     is the shared prefix; each suffix is a complete program over the same
//     qubit count whose gates are appended to Base's to form variant i.
//   - variants: complete per-variant programs; the engine discovers the
//     shared prefix itself via the prefix-hash chain, so textual variants
//     of the same prefix still share it.
//
// The remaining fields are the job template applied to every variant (same
// semantics as JobRequest). Shots mode is not batchable: a histogram job
// re-simulates per shot under its own seed, so there is no shared prefix
// work to factor out.
type BatchRequest struct {
	Base     string   `json:"base,omitempty"`
	Suffixes []string `json:"suffixes,omitempty"`
	Variants []string `json:"variants,omitempty"`

	Representation string  `json:"representation,omitempty"`
	Eps            float64 `json:"eps,omitempty"`
	Norm           string  `json:"norm,omitempty"`
	MaxNodes       int     `json:"max_nodes,omitempty"`
	MaxWeights     int     `json:"max_weights,omitempty"`
	MaxBytes       int64   `json:"max_bytes,omitempty"`
	TimeoutMS      int64   `json:"timeout_ms,omitempty"`
	MinFidelity    float64 `json:"min_fidelity,omitempty"`
	Output         string  `json:"output,omitempty"`
	TopK           int     `json:"top_k,omitempty"`
	// Wait makes the submitting transport block until the whole batch
	// finishes (the engine ignores it — waiting is the transport's job, via
	// Done).
	Wait bool `json:"wait,omitempty"`
}

// BatchVariantView is one variant's slot in the batch view: its derived
// request id, and either the child job's view or the submit error that
// refused it.
type BatchVariantView struct {
	Index     int        `json:"index"`
	RequestID string     `json:"request_id,omitempty"`
	Job       *JobView   `json:"job,omitempty"`
	Error     *ErrorBody `json:"error,omitempty"`
}

// BatchView is the wire form of a batch record (GET /v1/batches/{id}).
// PrefixKey is the cache key of the shared prefix's checkpoint — the
// address the router co-locates the batch by.
type BatchView struct {
	ID          string             `json:"id"`
	Status      string             `json:"status"`
	CreatedAt   time.Time          `json:"created_at"`
	FinishedAt  *time.Time         `json:"finished_at,omitempty"`
	PrefixGates int                `json:"prefix_gates"`
	PrefixKey   string             `json:"prefix_key,omitempty"`
	Prefix      *JobView           `json:"prefix,omitempty"`
	Variants    []BatchVariantView `json:"variants"`
}

// batchChild is one variant's engine-side record. requestID is fixed at
// submit time; job/err are written once by the scheduler goroutine under
// the batch mutex.
type batchChild struct {
	requestID string
	job       *Job
	err       *ErrorBody
}

// Batch aggregates one shared-prefix fan-out: the prefix job, the child
// jobs, and a done channel closed when every child is terminal. Transports
// observe it through ID, Done and View.
type Batch struct {
	id        string
	requestID string
	createdAt time.Time
	prefixLen int
	prefixKey qcache.Key
	done      chan struct{}

	mu         sync.Mutex
	status     string
	finishedAt time.Time
	prefixJob  *Job
	children   []batchChild
}

// ID returns the batch's record id.
func (b *Batch) ID() string { return b.id }

// Done returns a channel closed when every child job is terminal.
func (b *Batch) Done() <-chan struct{} { return b.done }

// PrefixKey returns the cache key the shared prefix's checkpoint lands
// under (zero when the batch has no shared prefix).
func (b *Batch) PrefixKey() qcache.Key { return b.prefixKey }

// childRequestID is safe without the lock: requestID is written before the
// scheduler goroutine starts and never mutated.
func (b *Batch) childRequestID(i int) string { return b.children[i].requestID }

func (b *Batch) setPrefix(j *Job) {
	b.mu.Lock()
	b.prefixJob = j
	b.mu.Unlock()
}

func (b *Batch) setChild(i int, j *Job, errBody *ErrorBody) {
	b.mu.Lock()
	b.children[i].job = j
	b.children[i].err = errBody
	b.mu.Unlock()
}

func (b *Batch) finish() {
	b.mu.Lock()
	b.status = StatusDone
	b.finishedAt = time.Now()
	b.mu.Unlock()
	close(b.done)
}

func (b *Batch) finished() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.status == StatusDone
}

// View snapshots the batch's wire form; withResults attaches each child
// job's result payload.
func (b *Batch) View(withResults bool) BatchView {
	b.mu.Lock()
	defer b.mu.Unlock()
	v := BatchView{ID: b.id, Status: b.status, CreatedAt: b.createdAt, PrefixGates: b.prefixLen}
	if b.prefixLen > 0 {
		v.PrefixKey = b.prefixKey.String()
	}
	if !b.finishedAt.IsZero() {
		t := b.finishedAt
		v.FinishedAt = &t
	}
	if b.prefixJob != nil {
		pv := b.prefixJob.View(false)
		v.Prefix = &pv
	}
	v.Variants = make([]BatchVariantView, len(b.children))
	for i := range b.children {
		c := &b.children[i]
		cv := BatchVariantView{Index: i, RequestID: c.requestID, Error: c.err}
		if c.job != nil {
			jv := c.job.View(withResults)
			cv.Job = &jv
		}
		v.Variants[i] = cv
	}
	return v
}

// batchStore retains batch records for polling, bounded like the job store:
// once full, the oldest finished batch is evicted per new submission.
type batchStore struct {
	mu    sync.Mutex
	cap   int
	items map[string]*Batch
	order []string
}

func newBatchStore(capacity int) *batchStore {
	return &batchStore{cap: capacity, items: make(map[string]*Batch)}
}

func newBatchID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("engine: batch id entropy: %v", err))
	}
	return "b" + hex.EncodeToString(b[:])
}

func (st *batchStore) add(b *Batch) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.order) >= st.cap && !st.evictLocked() {
		return false
	}
	st.items[b.id] = b
	st.order = append(st.order, b.id)
	return true
}

func (st *batchStore) evictLocked() bool {
	for i, id := range st.order {
		if st.items[id].finished() {
			delete(st.items, id)
			st.order = append(st.order[:i], st.order[i+1:]...)
			return true
		}
	}
	return false
}

func (st *batchStore) get(id string) *Batch {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.items[id]
}

// Batch returns the retained batch record for id, or nil.
func (e *Engine) Batch(id string) *Batch { return e.batches.get(id) }

// SubmitBatch validates a batch, registers it, and starts its scheduler
// goroutine. rid is the transport request id of the submission; child jobs
// carry derived ids (<rid>-/v<i>, <rid>-/prefix) so access logs reconstruct
// the fan-out. On acceptance the returned Batch is live: wait on Done, then
// View(true) for the per-variant results.
func (e *Engine) SubmitBatch(req BatchRequest, rid string) (*Batch, *SubmitError) {
	template, variants, prefixLen, serr := e.validateBatch(req)
	if serr != nil {
		return nil, serr
	}
	if e.Draining() {
		return nil, &SubmitError{Reason: RejectDraining, Body: ErrorBody{
			Kind: KindShuttingDown, Message: "server is draining",
		}}
	}

	b := &Batch{
		id:        newBatchID(),
		requestID: rid,
		createdAt: time.Now(),
		prefixLen: prefixLen,
		status:    StatusRunning,
		done:      make(chan struct{}),
		children:  make([]batchChild, len(variants)),
	}
	stem := rid
	if stem == "" {
		stem = b.id
	}
	for i := range b.children {
		b.children[i].requestID = fmt.Sprintf("%s-/v%d", stem, i)
	}
	if prefixLen > 0 {
		b.prefixKey = prefixCacheKey(&template, variants[0].circ, prefixLen)
	}
	if !e.batches.add(b) {
		return nil, &SubmitError{Reason: RejectBusy, Body: ErrorBody{
			Kind: KindQueueFull, Message: "batch store is full of unfinished batches",
		}}
	}
	e.met.batches.Add(1)
	e.met.batchVariants.Add(uint64(len(variants)))
	e.wg.Add(1)
	go e.runBatch(b, template, stem, variants)
	return b, nil
}

// validateBatch is SubmitBatch's validation: the form and size checks, the
// normalized job template every child runs under, the per-variant circuits
// and the shared prefix length in gates.
func (e *Engine) validateBatch(req BatchRequest) (JobRequest, []jobCircuit, int, *SubmitError) {
	invalid := func(format string, args ...any) *SubmitError {
		return &SubmitError{Reason: RejectInvalid, Body: ErrorBody{
			Kind: KindInvalidRequest, Message: fmt.Sprintf(format, args...),
		}}
	}
	hasBase := strings.TrimSpace(req.Base) != ""
	switch {
	case hasBase && len(req.Variants) > 0:
		return JobRequest{}, nil, 0, invalid("use base+suffixes or variants, not both")
	case hasBase && len(req.Suffixes) == 0:
		return JobRequest{}, nil, 0, invalid("base requires at least one suffix")
	case !hasBase && len(req.Suffixes) > 0:
		return JobRequest{}, nil, 0, invalid("suffixes require a base circuit")
	case !hasBase && len(req.Variants) == 0:
		return JobRequest{}, nil, 0, invalid("a batch needs base+suffixes or variants")
	}
	if n := len(req.Suffixes) + len(req.Variants); n > e.cfg.MaxBatchVariants {
		return JobRequest{}, nil, 0, invalid("batch has %d variants, server cap is %d", n, e.cfg.MaxBatchVariants)
	}

	template := JobRequest{
		Representation: req.Representation,
		Eps:            req.Eps,
		Norm:           req.Norm,
		MaxNodes:       req.MaxNodes,
		MaxWeights:     req.MaxWeights,
		MaxBytes:       req.MaxBytes,
		TimeoutMS:      req.TimeoutMS,
		MinFidelity:    req.MinFidelity,
		Output:         req.Output,
		TopK:           req.TopK,
	}
	if errBody := e.normalizeRequest(&template); errBody != nil {
		return JobRequest{}, nil, 0, &SubmitError{Reason: RejectInvalid, Body: *errBody}
	}
	variants, prefixLen, serr := e.batchCircuits(&template, req)
	if serr != nil {
		return JobRequest{}, nil, 0, serr
	}
	return template, variants, prefixLen, nil
}

// batchCircuits parses and checks the batch's circuits, returning the
// per-variant circuits (validated, read-out stripped — what each child job
// runs) and the shared prefix length in gates. Every source goes through
// the parse memo; a base+suffix variant is a new circuit whose gates are
// copied out of the memoized ones.
func (e *Engine) batchCircuits(template *JobRequest, req BatchRequest) ([]jobCircuit, int, *SubmitError) {
	invalid := func(format string, args ...any) *SubmitError {
		return &SubmitError{Reason: RejectInvalid, Body: ErrorBody{
			Kind: KindInvalidRequest, Message: fmt.Sprintf(format, args...),
		}}
	}
	parse := func(src, name string) (*parsememo.Parsed, *SubmitError) {
		p, errBody := e.parse(src, name)
		if errBody != nil {
			return nil, &SubmitError{Reason: RejectInvalid, Body: *errBody}
		}
		return p, nil
	}
	check := func(c *circuit.Circuit, i int) *SubmitError {
		if errBody := e.checkCircuit(template, c); errBody != nil {
			errBody.Message = fmt.Sprintf("variant %d: %s", i, errBody.Message)
			return &SubmitError{Reason: RejectInvalid, Body: *errBody}
		}
		return nil
	}

	if strings.TrimSpace(req.Base) != "" {
		bp, serr := parse(req.Base, "base")
		if serr != nil {
			return nil, 0, serr
		}
		base := bp.Circuit()
		if base.Cbits != 0 || !base.IsUnitary() {
			return nil, 0, invalid("the base circuit is the shared prefix and must be purely unitary (no measure, reset or classical control)")
		}
		variants := make([]jobCircuit, len(req.Suffixes))
		for i, src := range req.Suffixes {
			sp, serr := parse(src, fmt.Sprintf("suffix %d", i))
			if serr != nil {
				return nil, 0, serr
			}
			sc := sp.Circuit()
			if sc.N != base.N {
				return nil, 0, invalid("suffix %d has %d qubits, base has %d", i, sc.N, base.N)
			}
			gates := make([]circuit.Gate, 0, len(base.Gates)+len(sc.Gates))
			gates = append(append(gates, base.Gates...), sc.Gates...)
			v := &circuit.Circuit{
				Name:  fmt.Sprintf("variant %d", i),
				N:     base.N,
				Cbits: sc.Cbits,
				Gates: gates,
			}
			if serr := check(v, i); serr != nil {
				return nil, 0, serr
			}
			variants[i] = fingerprinted(v.StripReadout())
		}
		return variants, len(base.Gates), nil
	}

	variants := make([]jobCircuit, len(req.Variants))
	circs := make([]*circuit.Circuit, len(req.Variants))
	for i, src := range req.Variants {
		p, serr := parse(src, fmt.Sprintf("variant %d", i))
		if serr != nil {
			return nil, 0, serr
		}
		if serr := check(p.Circuit(), i); serr != nil {
			return nil, 0, serr
		}
		c, fp := p.Stripped()
		variants[i] = jobCircuit{circ: c, fp: fp}
		circs[i] = c
	}
	// The checked circuits are read-out stripped, hence fully unitary — the
	// discovered shared prefix is automatically a sound checkpoint position.
	return variants, circuit.SharedPrefixLen(circs...), nil
}

// prefixCacheKey is the cache key the shared prefix's checkpoint lands
// under: the chain link H_k of the first k gates, in the identity family
// the checkpoint store uses. The router uses the same
// construction to co-locate a batch with the solo jobs of its prefix.
func prefixCacheKey(template *JobRequest, v *circuit.Circuit, k int) qcache.Key {
	h := circuit.NewPrefixHasher(v.N, v.Cbits)
	for i := 0; i < k; i++ {
		h.Absorb(v.Gates[i])
	}
	eps := template.Eps
	if template.Representation != "float" {
		eps = 0
	}
	return qcache.Identity{
		Circuit: h.Link(),
		Repr:    template.Representation,
		Norm:    template.Norm,
		Eps:     eps,
		Output:  "state",
	}.Key()
}

// runBatch is the batch scheduler goroutine: simulate the shared prefix
// exactly once — the submit path's result cache and singleflight dedup make
// it exactly-once even across concurrent identical batches — then fan the
// variant jobs out (each warm-starts from the checkpoint the prefix run
// stored at its unitary boundary) and close the batch when every child is
// terminal.
func (e *Engine) runBatch(b *Batch, template JobRequest, stem string, variants []jobCircuit) {
	defer e.wg.Done()
	if b.prefixLen > 0 {
		preq := template
		preq.Output = "stats"
		preq.TopK = 0
		preq.Wait = false
		v := variants[0].circ
		pc := &circuit.Circuit{Name: "prefix", N: v.N, Gates: v.Gates[:b.prefixLen:b.prefixLen]}
		if pj, serr := e.submit(preq, fingerprinted(pc), stem+"-/prefix"); serr == nil {
			b.setPrefix(pj)
			if hook := e.cfg.HookBatchChild; hook != nil {
				hook(b, -1, pj)
			}
			<-pj.Done()
		}
		// A refused prefix job is not fatal: the variants just run cold.
	}
	jobs := make([]*Job, 0, len(variants))
	for i := range variants {
		vreq := template
		vreq.Wait = false
		j, serr := e.submit(vreq, variants[i], b.childRequestID(i))
		if serr != nil {
			body := serr.Body
			b.setChild(i, nil, &body)
			continue
		}
		b.setChild(i, j, nil)
		if hook := e.cfg.HookBatchChild; hook != nil {
			hook(b, i, j)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		<-j.Done()
	}
	b.finish()
}
