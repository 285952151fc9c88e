// Package sweep fans grids of independent simulation cells out across
// a process-wide worker budget. It is the intra-experiment counterpart
// of internal/runner: the runner parallelizes across experiments, sweep
// parallelizes the grid loops inside one experiment (configurations ×
// core counts, scenarios × runs, policies, cooling technologies), and
// both draw workers from the same weighted budget so nested
// parallelism — N experiments each sweeping M cells — never runs more
// hot goroutines than the budget's capacity.
//
// The engine's contract:
//
//   - Determinism. Results land in the output slice by cell index,
//     never by completion order, so a sweep's output is byte-for-byte
//     identical at any worker count. Cells must be independent: each
//     derives its randomness from a seed the harness fixed before the
//     fan-out, and any state shared between cells — load schedules,
//     traces, calibrated tables — is generated once before the fan-out
//     and read immutably afterwards.
//   - Budget sharing. Workers are tokens in a Budget (the package
//     Shared budget by default, sized GOMAXPROCS and grown to octl's
//     -j). Each worker of a parallel Map holds a token while its cells
//     run and attaches it to their context; when a cell blocks inside
//     a nested Map waiting for its own cells, that Map releases the
//     caller's token back to the budget — the cells borrow the very
//     slot their parent freed — and re-acquires it before returning. Tokens are therefore only ever
//     held by code that is actually running, and total concurrency
//     stays at the budget's capacity no matter how deeply sweeps nest.
//   - Cancellation. A cancelled context stops the sweep promptly:
//     running cells see the cancellation through their cell context
//     (the simulation kernels poll it at their event batches),
//     unstarted cells are marked with the context error without
//     running.
//   - Panic isolation. A panicking cell is converted into an error
//     carrying its stack instead of killing the process; the
//     remaining cells are cancelled and Map returns the
//     lowest-indexed cell error.
//   - Telemetry. Map publishes its own counters (cells, cell_errors,
//     cell_panics) and a per-cell wall-time histogram into
//     Options.Tel; harnesses give each cell its own child scope
//     (telemetry.Scope.Child) so gauge-valued engine metrics stay
//     deterministic instead of racing on last-write.
//
// With Workers ≤ 1 Map degenerates to the plain serial loop it
// replaced — no goroutines, and no budget traffic unless the caller
// passes a Budget explicitly — so a serial sweep costs what the
// original loop cost. The runner passes its budget, so a one-worker
// run still holds a token for its experiments' sweeps to lend.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"immersionoc/internal/telemetry"
)

// Budget is a weighted worker semaphore: a fixed number of tokens,
// FIFO-granted to acquirers. The process shares one (Shared) between
// the experiment runner and every sweep, which is what keeps nested
// parallelism bounded. The zero value is unusable; use NewBudget.
type Budget struct {
	mu      sync.Mutex
	cap     int
	used    int
	waiters []chan struct{}
}

// NewBudget returns a budget with n tokens (minimum 1).
func NewBudget(n int) *Budget {
	if n < 1 {
		n = 1
	}
	return &Budget{cap: n}
}

// Shared is the process-wide budget, sized GOMAXPROCS at startup. The
// runner grows it to the requested -j before a run.
var Shared = NewBudget(runtime.GOMAXPROCS(0))

// Cap returns the current token capacity.
func (b *Budget) Cap() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cap
}

// Used returns the tokens currently held.
func (b *Budget) Used() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.used
}

// Grow raises the capacity to at least n and hands the new tokens to
// queued waiters. Capacity never shrinks: concurrent runs may have
// sized it, and tokens already granted cannot be recalled.
func (b *Budget) Grow(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if n > b.cap {
		b.cap = n
	}
	for b.used < b.cap && len(b.waiters) > 0 {
		ch := b.waiters[0]
		b.waiters = b.waiters[1:]
		b.used++
		close(ch)
	}
}

// acquireLease blocks until a token is free (or ctx is done) and
// returns the held lease.
func (b *Budget) acquireLease(ctx context.Context) (*lease, error) {
	if err := b.acquire(ctx); err != nil {
		return nil, err
	}
	return &lease{b: b, held: true}, nil
}

func (b *Budget) acquire(ctx context.Context) error {
	b.mu.Lock()
	if len(b.waiters) == 0 && b.used < b.cap {
		b.used++
		b.mu.Unlock()
		return nil
	}
	ch := make(chan struct{})
	b.waiters = append(b.waiters, ch)
	b.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		b.mu.Lock()
		granted := true
		for i, w := range b.waiters {
			if w == ch {
				b.waiters = append(b.waiters[:i], b.waiters[i+1:]...)
				granted = false
				break
			}
		}
		if granted {
			// The token arrived while we were giving up: pass it on.
			b.releaseLocked()
		}
		b.mu.Unlock()
		return ctx.Err()
	}
}

func (b *Budget) release() {
	b.mu.Lock()
	b.releaseLocked()
	b.mu.Unlock()
}

func (b *Budget) releaseLocked() {
	if len(b.waiters) > 0 {
		ch := b.waiters[0]
		b.waiters = b.waiters[1:]
		close(ch) // token transferred; used is unchanged
		return
	}
	b.used--
	if b.used < 0 {
		panic("sweep: token released without being acquired")
	}
}

// lease is one held budget token. Map attaches each worker's lease to
// its cells' context, and a nested Map lends it out while the cell
// blocks. release is idempotent and a nil lease no-ops everywhere.
type lease struct {
	b    *Budget
	mu   sync.Mutex
	held bool
}

// release returns the token to the budget. Releasing an unheld or nil
// lease is a no-op, so cleanup paths need no state tracking.
func (l *lease) release() {
	if l == nil {
		return
	}
	l.mu.Lock()
	h := l.held
	l.held = false
	l.mu.Unlock()
	if h {
		l.b.release()
	}
}

// reacquire blocks until the lease holds a token again (no-op when it
// already does, or for a nil lease).
func (l *lease) reacquire(ctx context.Context) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	held := l.held
	l.mu.Unlock()
	if held {
		return nil
	}
	if err := l.b.acquire(ctx); err != nil {
		return err
	}
	l.mu.Lock()
	l.held = true
	l.mu.Unlock()
	return nil
}

// budget returns the budget the lease draws from (nil-safe).
func (l *lease) budget() *Budget {
	if l == nil {
		return nil
	}
	return l.b
}

type leaseKey struct{}

// attach returns a context carrying a held lease, so a Map inside can
// lend the slot out while the holder blocks on the sweep.
func attach(ctx context.Context, l *lease) context.Context {
	return context.WithValue(ctx, leaseKey{}, l)
}

// leaseFrom extracts the lease attach stored, if any.
func leaseFrom(ctx context.Context) *lease {
	l, _ := ctx.Value(leaseKey{}).(*lease)
	return l
}

// Options tunes one Map call. The zero value runs the grid serially
// in the caller's goroutine — the calibrated default, matching the
// loops the sweeps replaced.
type Options struct {
	// Workers bounds the cells executing at once. ≤ 1 runs the grid
	// serially with no goroutines; the runner threads octl's -j here
	// through experiments.Options.
	Workers int
	// Budget is the token pool cells draw from. Nil uses the budget
	// of the lease attached to ctx (the runner's) and falls back to
	// Shared, so sweeps always share slots with the runner by default.
	// A serial Map holds one token of an explicit Budget while its
	// cells run, unless the caller already holds one.
	Budget *Budget
	// Tel, when non-nil, receives the sweep's own metrics: cells,
	// cell_errors and cell_panics counters plus a cell_wall_s
	// histogram.
	Tel *telemetry.Scope
}

// Map runs cell(ctx, i) for every i in [0, n) and collects the
// results by index. With Workers > 1 the cells fan out across budget
// tokens; the caller's own token (if its context carries a lease) is
// lent to the pool while Map blocks. On error Map cancels the
// remaining cells and returns the lowest-indexed cell error alongside
// the results gathered so far; a cell it did not start keeps its zero
// value, and a panicking cell becomes an error carrying its stack.
// Cells must not share mutable state — anything shared is generated
// before the call and read immutably.
func Map[T any](ctx context.Context, n int, o Options, cell func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, ctx.Err()
	}
	m := sweepMetrics{
		cells:  o.Tel.Counter("cells"),
		errs:   o.Tel.Counter("cell_errors"),
		panics: o.Tel.Counter("cell_panics"),
		wall:   o.Tel.Histogram("cell_wall_s", telemetry.WallBuckets),
	}

	workers := o.Workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		// Serial fast path: the plain loop the sweep replaced, in the
		// caller's goroutine. A caller that holds no token and passes a
		// budget gets one for the loop, which the cells' own sweeps
		// lend as they would a parallel worker's.
		if o.Budget != nil && leaseFrom(ctx) == nil {
			l, err := o.Budget.acquireLease(ctx)
			if err != nil {
				return out, err
			}
			defer l.release()
			ctx = attach(ctx, l)
		}
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return out, err
			}
			v, err := runCell(ctx, i, cell, m)
			if err != nil {
				return out, err
			}
			out[i] = v
		}
		return out, nil
	}

	budget := o.Budget
	parent := leaseFrom(ctx)
	if budget == nil {
		if budget = parent.budget(); budget == nil {
			budget = Shared
		}
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup

	// Lend the caller's slot to the cells for the duration of the
	// fan-out: this goroutine only waits from here on.
	parent.release()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var l *lease
			defer func() { l.release() }()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := cctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				if l == nil {
					var err error
					if l, err = budget.acquireLease(cctx); err != nil {
						errs[i] = err
						continue
					}
				}
				out[i], errs[i] = runCell(attach(cctx, l), i, cell, m)
				if errs[i] != nil {
					cancel()
				}
			}
		}()
	}
	wg.Wait()

	// Report the lowest-indexed genuine failure: a failing cell
	// cancels its siblings, and a lower-indexed sibling may record
	// that cancellation before the culprit's own error lands.
	var err, firstErr error
	for _, e := range errs {
		if e == nil {
			continue
		}
		if firstErr == nil {
			firstErr = e
		}
		if !errors.Is(e, context.Canceled) {
			err = e
			break
		}
	}
	if err == nil {
		err = firstErr
	}
	// Take the caller's slot back before resuming its code. Use the
	// original ctx: cctx is cancelled on every exit from this
	// function, successful or not.
	if rerr := parent.reacquire(ctx); err == nil {
		err = rerr
	}
	return out, err
}

// sweepMetrics holds the sweep's own telemetry handles (nil no-ops
// when collection is off).
type sweepMetrics struct {
	cells, errs, panics *telemetry.Counter
	wall                *telemetry.Histogram
}

// runCell executes one cell with panic isolation and wall-time
// accounting.
func runCell[T any](ctx context.Context, i int, cell func(ctx context.Context, i int) (T, error), m sweepMetrics) (v T, err error) {
	m.cells.Inc()
	start := time.Now()
	defer func() {
		m.wall.Observe(time.Since(start).Seconds())
		if p := recover(); p != nil {
			m.panics.Inc()
			err = fmt.Errorf("sweep: cell %d panicked: %v\n%s", i, p, debug.Stack())
		}
		if err != nil {
			m.errs.Inc()
		}
	}()
	return cell(ctx, i)
}
