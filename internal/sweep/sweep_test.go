package sweep

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"immersionoc/internal/telemetry"
)

// TestMapOrdering: results land by cell index regardless of worker
// count or completion order (later cells finish first here).
func TestMapOrdering(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		got, err := Map(context.Background(), 32, Options{Workers: workers, Budget: NewBudget(16)},
			func(ctx context.Context, i int) (int, error) {
				time.Sleep(time.Duration(32-i) * 100 * time.Microsecond)
				return i * i, nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestMapSerialParallelIdentical: a deterministic grid produces the
// same results at every worker count.
func TestMapSerialParallelIdentical(t *testing.T) {
	run := func(workers int) []uint64 {
		out, err := Map(context.Background(), 20, Options{Workers: workers, Budget: NewBudget(8)},
			func(ctx context.Context, i int) (uint64, error) {
				z := 42 + 0x9e3779b97f4a7c15*uint64(i+1)
				return z ^ z>>31, nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return out
	}
	serial := run(1)
	for _, w := range []int{2, 8} {
		par := run(w)
		for i := range serial {
			if par[i] != serial[i] {
				t.Fatalf("workers=%d diverges at cell %d", w, i)
			}
		}
	}
}

// TestBudgetNeverExceeded: concurrent cells never exceed the budget
// capacity, including when sweeps nest (the outer cell lends its token
// to its inner grid).
func TestBudgetNeverExceeded(t *testing.T) {
	const cap = 3
	b := NewBudget(cap)
	var running, peak atomic.Int64
	enter := func() {
		n := running.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
	}
	_, err := Map(context.Background(), 6, Options{Workers: 6, Budget: b},
		func(ctx context.Context, i int) (int, error) {
			enter()
			time.Sleep(2 * time.Millisecond)
			running.Add(-1)
			// Nested sweep: this cell's token is lent to its inner cells.
			_, err := Map(ctx, 4, Options{Workers: 4, Budget: b},
				func(ctx context.Context, j int) (int, error) {
					enter()
					time.Sleep(time.Millisecond)
					running.Add(-1)
					return j, nil
				})
			return i, err
		})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > cap {
		t.Fatalf("peak concurrency %d exceeds budget cap %d", p, cap)
	}
	if u := b.Used(); u != 0 {
		t.Fatalf("budget leaks %d tokens after Map", u)
	}
}

// TestLeaseLending: a caller holding the budget's only token can still
// fan out — Map lends the caller's slot to the cells and takes it back
// afterwards. Without lending this deadlocks. A serial Map given the
// same budget runs its cells under the caller's token instead of
// waiting for a second one.
func TestLeaseLending(t *testing.T) {
	b := NewBudget(1)
	l, err := b.acquireLease(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(attach(context.Background(), l), 10*time.Second)
	defer cancel()
	for _, o := range []Options{{Workers: 4}, {Workers: 1, Budget: b}} {
		out, err := Map(ctx, 4, o,
			func(ctx context.Context, i int) (int, error) { return i + 1, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", o.Workers, err)
		}
		for i, v := range out {
			if v != i+1 {
				t.Fatalf("workers=%d: out[%d] = %d", o.Workers, i, v)
			}
		}
		if u := b.Used(); u != 1 {
			t.Fatalf("workers=%d: caller's token not reacquired: used = %d, want 1", o.Workers, u)
		}
	}
	l.release()
	if u := b.Used(); u != 0 {
		t.Fatalf("used = %d after release, want 0", u)
	}
}

// TestPanicIsolation: a panicking cell becomes an error with its stack
// instead of killing the process, siblings share one telemetry scope
// (exercised under -race), and the sweep's counters record the panic.
func TestPanicIsolation(t *testing.T) {
	reg := telemetry.NewRegistry()
	scope := reg.Scope("sweep-test")
	_, err := Map(context.Background(), 8, Options{Workers: 4, Budget: NewBudget(4), Tel: scope},
		func(ctx context.Context, i int) (int, error) {
			scope.Counter("cell_work").Inc() // shared scope across cells
			if i == 3 {
				panic("boom")
			}
			return i, nil
		})
	if err == nil || !strings.Contains(err.Error(), "cell 3 panicked: boom") {
		t.Fatalf("err = %v, want cell 3 panic", err)
	}
	if got := scope.Counter("cell_panics").Value(); got != 1 {
		t.Fatalf("cell_panics = %d, want 1", got)
	}
	if got := scope.Counter("cells").Value(); got == 0 {
		t.Fatal("cells counter not published")
	}
}

// TestMapError: the lowest-indexed genuine error wins even though the
// failure cancels lower-indexed cells still in flight.
func TestMapError(t *testing.T) {
	boom := errors.New("boom")
	started := make(chan struct{})
	_, err := Map(context.Background(), 4, Options{Workers: 2, Budget: NewBudget(2)},
		func(ctx context.Context, i int) (int, error) {
			switch i {
			case 0:
				close(started)
				<-ctx.Done() // cancelled by cell 1's failure
				return 0, ctx.Err()
			case 1:
				<-started
				return 0, fmt.Errorf("cell 1: %w", boom)
			}
			return i, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the genuine cell error, not context.Canceled", err)
	}
}

// TestMapCancellation: cancelling the sweep's context stops it and
// surfaces the context error.
func TestMapCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	_, err := Map(ctx, 64, Options{Workers: 2, Budget: NewBudget(2)},
		func(ctx context.Context, i int) (int, error) {
			if ran.Add(1) == 2 {
				cancel()
			}
			<-ctx.Done()
			return 0, ctx.Err()
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 64 {
		t.Fatalf("all %d cells ran despite cancellation", n)
	}
}

// TestMapSerialStopsOnError: the serial fast path stops at the first
// failing cell like the loops it replaced.
func TestMapSerialStopsOnError(t *testing.T) {
	boom := errors.New("boom")
	var ran int
	_, err := Map(context.Background(), 8, Options{},
		func(ctx context.Context, i int) (int, error) {
			ran++
			if i == 2 {
				return 0, boom
			}
			return i, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if ran != 3 {
		t.Fatalf("ran %d cells, want 3", ran)
	}
}

// TestBudgetGrow: growing the budget wakes queued waiters, and
// capacity never shrinks.
func TestBudgetGrow(t *testing.T) {
	b := NewBudget(1)
	l1, err := b.acquireLease(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	acquired := make(chan *lease)
	go func() {
		l, err := b.acquireLease(context.Background())
		if err != nil {
			t.Error(err)
		}
		acquired <- l
	}()
	select {
	case <-acquired:
		t.Fatal("second Acquire succeeded at cap 1")
	case <-time.After(10 * time.Millisecond):
	}
	b.Grow(2)
	var l2 *lease
	select {
	case l2 = <-acquired:
	case <-time.After(5 * time.Second):
		t.Fatal("Grow did not wake the waiter")
	}
	b.Grow(1) // never shrinks
	if c := b.Cap(); c != 2 {
		t.Fatalf("cap = %d after Grow(1), want 2", c)
	}
	l1.release()
	l2.release()
	if u := b.Used(); u != 0 {
		t.Fatalf("used = %d, want 0", u)
	}
}

// TestAcquireCancelled: an Acquire abandoned by cancellation while the
// token was being granted passes the token on instead of leaking it.
func TestAcquireCancelled(t *testing.T) {
	b := NewBudget(1)
	l, err := b.acquireLease(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := b.acquireLease(ctx)
		done <- err
	}()
	time.Sleep(5 * time.Millisecond) // let the goroutine enqueue
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	l.release()
	// The budget must still have its token available.
	l2, err := b.acquireLease(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	l2.release()
	if u := b.Used(); u != 0 {
		t.Fatalf("used = %d, want 0", u)
	}
}

// TestLeaseReleaseIdempotent: double-release and nil lease are no-ops.
func TestLeaseReleaseIdempotent(t *testing.T) {
	b := NewBudget(2)
	l, err := b.acquireLease(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	l.release()
	l.release()
	if u := b.Used(); u != 0 {
		t.Fatalf("used = %d after double release", u)
	}
	var nilLease *lease
	nilLease.release()
	if err := nilLease.reacquire(context.Background()); err != nil {
		t.Fatalf("nil Reacquire: %v", err)
	}
}

// TestMapManyCellsFewWorkers: more cells than workers drains the whole
// grid without leaking tokens or goroutines.
func TestMapManyCellsFewWorkers(t *testing.T) {
	b := NewBudget(2)
	out, err := Map(context.Background(), 100, Options{Workers: 2, Budget: b},
		func(ctx context.Context, i int) (int, error) { return i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 100 || out[99] != 99 {
		t.Fatalf("bad results: len=%d", len(out))
	}
	if u := b.Used(); u != 0 {
		t.Fatalf("budget leaks %d tokens", u)
	}
}
