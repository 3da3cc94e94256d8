package bench

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool fans independent sweep cells out to share-nothing workers. The
// paper's evaluation is a grid of independent runs — ε sweeps times number
// representations — and every cell owns a private core.Manager (per-manager
// unique/compute/intern tables), so workers never share mutable diagram
// state; the only cross-worker traffic is the cell index counter and the
// result slots, each written by exactly one worker.
//
// Determinism: cells are dispatched in index order from an atomic counter
// and every cell writes only its own result slot, so callers that merge by
// cell index (as Execute, Tune and NormSchemeComparison do) produce output
// identical to the sequential path regardless of completion order or worker
// count. Timing fields naturally differ; everything derived from diagram
// arithmetic is byte-identical.
//
// Cancellation: when the context is cancelled, workers stop pulling new
// cells and the cells already in flight are cancelled cooperatively through
// the same context (each cell installs it into its private manager), so Run
// drains cleanly — it returns only after every in-flight cell has unwound.
type Pool struct {
	// Workers bounds the pool: 0 (the default) resolves to
	// runtime.GOMAXPROCS(0); 1 runs the cells sequentially on the calling
	// goroutine's schedule but through the same code path.
	Workers int
}

// resolveWorkers returns the effective worker count for n cells.
func (p *Pool) resolveWorkers(n int) int {
	w := p.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes cells 0..n−1, each at most once, on the pool's workers. The
// cell callback must confine all mutable state to the cell (private
// managers) except its own result slot.
//
// Error contract, matching the sequential sweep semantics:
//   - a cell error that is the context's cancellation (context.Canceled /
//     DeadlineExceeded while ctx is done) is not fatal — the caller has
//     already folded the partial run into its result slot;
//   - any other cell error is fatal: no new cells are dispatched, in-flight
//     cells are cancelled, and the fatal error with the smallest cell index
//     is returned (the one the sequential path would have hit first);
//   - when ctx is cancelled, Run drains the in-flight cells and returns
//     ctx.Err().
func (p *Pool) Run(ctx context.Context, n int, cell func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers := p.resolveWorkers(n)

	// Fatal cell errors cancel the remaining work through a derived context;
	// the cells they interrupt come back with induced context errors, which
	// are ignored in favour of the smallest-index genuine failure.
	workCtx, stopWork := context.WithCancel(ctx)
	defer stopWork()

	var (
		next     atomic.Int64
		mu       sync.Mutex
		fatalIdx = -1
		fatalErr error
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				// Cancellation stops dispatch — except for cell 0, which always
				// runs: a sweep cancelled before it started still returns one
				// annotated partial run, exactly like the sequential path, and
				// a pre-cancelled context makes the cell return immediately.
				if i > 0 && workCtx.Err() != nil {
					return
				}
				if err := cell(workCtx, i); err != nil && !isCtxErr(err) {
					mu.Lock()
					if fatalIdx == -1 || i < fatalIdx {
						fatalIdx, fatalErr = i, err
					}
					mu.Unlock()
					stopWork()
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	return fatalErr
}

// isCtxErr reports whether err is a context outcome (cancellation or
// deadline), whichever layer wrapped it.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
