package sim

import (
	"math"
	"testing"
	"testing/quick"
)

// traceOp is one step of a randomized kernel trace: schedule, cancel,
// retime, or advance the clock. The numeric fields are interpreted
// modulo the live state so every generated value is a legal trace.
type traceOp struct {
	Kind  uint8
	Which uint16
	Delta uint8
}

// traceDelta spreads deltas across the wheel's interesting scales:
// zero (same timestamp), sub-tick, exactly one tick, millisecond and
// second scale (level 0-1), minute scale (level 2+), beyond the wheel
// horizon (overflow list), and +Inf.
func traceDelta(b uint8) float64 {
	switch b % 8 {
	case 0:
		return 0
	case 1:
		return 1.0 / 4096
	case 2:
		return 1.0 / 1024
	case 3:
		return float64(b) / 997
	case 4:
		return float64(b) * 0.37
	case 5:
		return float64(b) * 65.0
	case 6:
		return 1e10 + float64(b)*7e9
	default:
		if b > 250 {
			return math.Inf(1)
		}
		return float64(b) * 1e5
	}
}

// runTrace drives one kernel through a trace and returns the exact
// firing log (event ids in firing order) plus final clock state.
func runTrace(newSim func() *Simulation, ops []traceOp) (log []int, now Time, fired uint64) {
	s := newSim()
	var evs []*Event
	var alive []bool
	schedule := func(at Time) {
		id := len(evs)
		evs = append(evs, nil)
		alive = append(alive, true)
		evs[id] = s.Schedule(at, func(*Simulation) {
			log = append(log, id)
			alive[id] = false
			evs[id] = nil
		})
	}
	schedule(0)
	for _, op := range ops {
		switch op.Kind % 5 {
		case 0, 1: // weight toward scheduling
			schedule(s.Now() + Time(traceDelta(op.Delta)))
		case 2:
			if i := int(op.Which) % len(evs); alive[i] && !evs[i].Cancelled() {
				evs[i].Cancel()
				alive[i] = false
			}
		case 3:
			if i := int(op.Which) % len(evs); alive[i] && !evs[i].Cancelled() {
				s.Reschedule(evs[i], s.Now()+Time(traceDelta(op.Delta)))
			}
		case 4:
			s.RunUntil(s.Now() + Time(traceDelta(op.Delta)))
		}
	}
	s.Run()
	return log, s.Now(), s.EventsFired()
}

// TestWheelMatchesHeap is the differential gate for the timing-wheel
// kernel: random schedule/cancel/retime/advance traces must produce a
// firing order bit-identical to the binary-heap reference, including
// seq tie-breaking at equal timestamps and events parked beyond the
// wheel horizon.
func TestWheelMatchesHeap(t *testing.T) {
	f := func(ops []traceOp) bool {
		wLog, wNow, wFired := runTrace(New, ops)
		hLog, hNow, hFired := runTrace(newHeapSim, ops)
		if wNow != hNow || wFired != hFired || len(wLog) != len(hLog) {
			t.Logf("wheel now=%v fired=%d n=%d; heap now=%v fired=%d n=%d",
				wNow, wFired, len(wLog), hNow, hFired, len(hLog))
			return false
		}
		for i := range wLog {
			if wLog[i] != hLog[i] {
				t.Logf("firing order diverges at %d: wheel %d, heap %d", i, wLog[i], hLog[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestWheelCursorCarry pins the block-boundary case: promoting the
// last tick of a 64-tick block carries the cursor into the next block
// without cascading it, so an event already parked at level 1 for that
// block must still fire before later same-block events that land
// directly in level 0.
func TestWheelCursorCarry(t *testing.T) {
	const tick = 1.0 / tickHz
	s := New()
	var order []string
	s.Schedule(Time(64*tick), func(*Simulation) { order = append(order, "levelled") }) // level 1 while cursor is in block 0
	s.Schedule(Time(63*tick), func(sm *Simulation) {
		order = append(order, "last-of-block")
		// Scheduled after the carry to tick 64: lands in level 0.
		sm.Schedule(Time(65*tick), func(*Simulation) { order = append(order, "direct") })
	})
	s.Run()
	want := []string{"last-of-block", "levelled", "direct"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("firing order %v, want %v", order, want)
		}
	}
}

// TestWheelLateScheduleBehindCursor pins the drain-merge case: peeking
// past the run horizon promotes a bucket and advances the cursor, and
// an event then scheduled into the already-promoted tick must still
// fire in timestamp order.
func TestWheelLateScheduleBehindCursor(t *testing.T) {
	const tick = 1.0 / tickHz
	s := New()
	var order []string
	s.Schedule(Time(100.7*tick), func(*Simulation) { order = append(order, "promoted") })
	// Stops short of the event but forces its bucket into the drain.
	s.RunUntil(Time(100.2 * tick))
	s.Schedule(Time(100.4*tick), func(*Simulation) { order = append(order, "late") })
	s.Run()
	if len(order) != 2 || order[0] != "late" || order[1] != "promoted" {
		t.Fatalf("firing order %v, want [late promoted]", order)
	}
}

// TestWheelOverflowRebase exercises the overflow list: events beyond
// the ~136-year wheel horizon park unordered, rebase onto the earliest
// when the wheel drains, and retimes can pull them back in.
func TestWheelOverflowRebase(t *testing.T) {
	s := New()
	var order []string
	s.Schedule(3e10, func(*Simulation) { order = append(order, "far-b") })
	s.Schedule(2e10, func(*Simulation) { order = append(order, "far-a") })
	e := s.Schedule(4e10, func(*Simulation) { order = append(order, "retimed") })
	s.Schedule(5, func(*Simulation) { order = append(order, "near") })
	s.RunUntil(10)
	s.Reschedule(e, 2e10) // overflow -> overflow, ties by fresh seq
	s.Run()
	want := []string{"near", "far-a", "retimed", "far-b"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("firing order %v, want %v", order, want)
		}
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after run, want 0", s.Pending())
	}
}

// TestWheelInfiniteTimestamp: events at +Inf never fire under a finite
// horizon but do fire, in seq order, under Run().
func TestWheelInfiniteTimestamp(t *testing.T) {
	s := New()
	var order []int
	s.Schedule(Time(math.Inf(1)), func(*Simulation) { order = append(order, 1) })
	s.Schedule(Time(math.Inf(1)), func(*Simulation) { order = append(order, 2) })
	s.RunUntil(1e12)
	if len(order) != 0 {
		t.Fatalf("infinite events fired under a finite horizon: %v", order)
	}
	s.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("firing order %v, want [1 2]", order)
	}
}

// TestWheelForeignEventPanics: rescheduling an event owned by the heap
// kernel on a wheel kernel (and vice versa) must panic, same as any
// other foreign event.
func TestWheelForeignEventPanics(t *testing.T) {
	for _, tc := range []struct {
		name       string
		mine, them func() *Simulation
	}{
		{"heap event on wheel", New, newHeapSim},
		{"wheel event on heap", newHeapSim, New},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.mine()
			other := tc.them()
			e := other.Schedule(1, func(*Simulation) {})
			s.Schedule(1, func(*Simulation) {})
			defer func() {
				if recover() == nil {
					t.Fatal("foreign reschedule did not panic")
				}
			}()
			s.Reschedule(e, 2)
		})
	}
}
