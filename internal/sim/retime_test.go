package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRescheduleMovesEvent(t *testing.T) {
	s := New()
	var at Time
	e := s.Schedule(10, func(sm *Simulation) { at = sm.Now() })
	s.Reschedule(e, 5)
	if e.At() != 5 {
		t.Fatalf("At() = %v after reschedule, want 5", e.At())
	}
	s.Run()
	if at != 5 {
		t.Fatalf("rescheduled event fired at %v, want 5", at)
	}
	if s.EventsFired() != 1 {
		t.Fatalf("EventsFired = %d, want 1", s.EventsFired())
	}
}

// TestRescheduleTieBreak pins the sequence-bump rule: a retimed event
// loses its original insertion rank and ties like a freshly scheduled
// one, exactly as cancel-then-reschedule behaved.
func TestRescheduleTieBreak(t *testing.T) {
	s := New()
	var got []string
	b := s.Schedule(3, func(*Simulation) { got = append(got, "b") }) // seq 0
	s.Schedule(5, func(*Simulation) { got = append(got, "a") })      // seq 1
	s.Reschedule(b, 5)                                               // b now ties with a but with a later seq
	s.Run()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("tie order %v, want [a b]", got)
	}
}

// TestRetimeMatchesCancelReschedule drives the same random scenario
// through in-place retiming and through the legacy cancel+reschedule
// idiom and requires the exact same firing order — the equivalence the
// queueing engine's byte-identical outputs rest on.
func TestRetimeMatchesCancelReschedule(t *testing.T) {
	type op struct {
		Idx   uint8 // which event to move
		To    uint8 // new timestamp
		After uint8 // extra noise event scheduled alongside
	}
	f := func(times []uint8, ops []op) bool {
		if len(times) == 0 {
			return true
		}
		run := func(retime bool) []int {
			s := New()
			var order []int
			evs := make([]*Event, len(times))
			record := func(i int) func(*Simulation) {
				return func(*Simulation) { order = append(order, i) }
			}
			for i, at := range times {
				evs[i] = s.Schedule(Time(at), record(i))
			}
			for _, o := range ops {
				i := int(o.Idx) % len(evs)
				if retime {
					s.Reschedule(evs[i], Time(o.To))
				} else {
					evs[i].Cancel()
					evs[i] = s.Schedule(Time(o.To), record(i))
				}
				s.Schedule(Time(o.After), record(1000+int(o.After)))
			}
			s.Run()
			return order
		}
		a, b := run(true), run(false)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestFreelistReuseDoesNotResurrectCancellation checks that a recycled
// Event struct sheds its previous life: a new event built from a
// cancelled-and-drained struct must fire, and must not report the old
// cancellation.
func TestFreelistReuseDoesNotResurrectCancellation(t *testing.T) {
	s := New()
	e1 := s.Schedule(1, func(*Simulation) { t.Fatal("cancelled event fired") })
	e1.Cancel()
	s.RunUntil(2) // drains the tombstone into the free-list
	if e1.Queued() {
		t.Fatal("drained event still reports queued")
	}
	fired := false
	e2 := s.Schedule(3, func(*Simulation) { fired = true })
	if e2 != e1 {
		t.Fatalf("free-list did not recycle the drained struct (got %p, want %p)", e2, e1)
	}
	if e2.Cancelled() {
		t.Fatal("recycled event born cancelled")
	}
	s.Run()
	if !fired {
		t.Fatal("recycled event did not fire")
	}
}

// TestAccountingAfterRetime pins Pending/EventsFired semantics:
// retiming neither fires an event nor leaves a tombstone, while the
// legacy idiom inflates Pending with a dead event until the queue
// drains past it.
func TestAccountingAfterRetime(t *testing.T) {
	s := New()
	var evs []*Event
	for i := 0; i < 3; i++ {
		evs = append(evs, s.Schedule(Time(i+1), func(*Simulation) {}))
	}
	s.Reschedule(evs[0], 7)
	s.Reschedule(evs[0], 4)
	if s.Pending() != 3 {
		t.Fatalf("Pending = %d after retimes, want 3", s.Pending())
	}
	if s.EventsFired() != 0 {
		t.Fatalf("EventsFired = %d before run, want 0", s.EventsFired())
	}
	// Legacy idiom for contrast: tombstone visible until drained.
	evs[1].Cancel()
	s.Schedule(5, func(*Simulation) {})
	if s.Pending() != 4 {
		t.Fatalf("Pending = %d with tombstone, want 4", s.Pending())
	}
	s.Run()
	if s.EventsFired() != 3 {
		t.Fatalf("EventsFired = %d after run, want 3", s.EventsFired())
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after run, want 0", s.Pending())
	}
}

func TestReschedulePanics(t *testing.T) {
	cases := []struct {
		name string
		f    func(s *Simulation)
	}{
		{"fired event", func(s *Simulation) {
			e := s.Schedule(1, func(*Simulation) {})
			s.Run()
			s.Reschedule(e, 2)
		}},
		{"cancelled event", func(s *Simulation) {
			e := s.Schedule(1, func(*Simulation) {})
			e.Cancel()
			s.Reschedule(e, 2)
		}},
		{"past time", func(s *Simulation) {
			s.Schedule(1, func(*Simulation) {})
			e := s.Schedule(10, func(*Simulation) {})
			s.RunUntil(5)
			s.Reschedule(e, 2)
		}},
		{"NaN time", func(s *Simulation) {
			e := s.Schedule(1, func(*Simulation) {})
			s.Reschedule(e, Time(math.NaN()))
		}},
		{"foreign event", func(s *Simulation) {
			other := New()
			e := other.Schedule(1, func(*Simulation) {})
			s.Schedule(1, func(*Simulation) {})
			s.Reschedule(e, 2)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", tc.name)
				}
			}()
			tc.f(New())
		})
	}
}

// TestKernelSteadyStateAllocFree pins the free-list guarantee: once
// warm, a self-rescheduling event stream allocates nothing at all.
func TestKernelSteadyStateAllocFree(t *testing.T) {
	s := New()
	var tick func(*Simulation)
	tick = func(sm *Simulation) { sm.After(1, tick) }
	s.After(1, tick)
	s.RunUntil(100) // warm the free-list
	avg := testing.AllocsPerRun(100, func() {
		s.RunUntil(s.Now() + 50)
	})
	if avg != 0 {
		t.Fatalf("steady-state kernel allocates %.2f allocs per 50-event batch, want 0", avg)
	}
}

// TestTickerStopSafeAfterRecycle guards the recycling contract at the
// one call site that retains fired events: a second Stop after the
// ticker's event struct was recycled must not cancel the new owner.
func TestTickerStopSafeAfterRecycle(t *testing.T) {
	s := New()
	var tk *Ticker
	tk = s.NewTicker(0, 1, func(*Simulation, Time) { tk.Stop() })
	s.RunUntil(5)
	fired := false
	s.Schedule(10, func(*Simulation) { fired = true }) // likely reuses the recycled struct
	tk.Stop()                                          // must be a no-op
	s.Run()
	if !fired {
		t.Fatal("late Ticker.Stop cancelled an unrelated recycled event")
	}
}
