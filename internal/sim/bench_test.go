package sim

import "testing"

// BenchmarkKernel measures the three kernel primitives the queueing
// engine leans on — the schedule→fire cycle of a self-rescheduling
// event chain, in-place retiming of a pending event, and the legacy
// cancel+reschedule idiom retiming replaces — under both queue
// backends, so the wheel-vs-heap delta is a first-class benchmark row.
// allocs/op is the headline: schedule-fire and retime must be
// allocation-free in steady state on either backend.
//
// Note the sparse single-event chain is the wheel's antagonistic case:
// every fire promotes a fresh bucket holding one event, so the heap's
// sift over a tiny heap wins this microbenchmark. The wheel earns its
// keep on dense schedules (BenchmarkOversubscribed), where promotion
// cost amortizes over bucket contents and retimes hit the same-slot
// fast path.
func BenchmarkKernel(b *testing.B) {
	for _, k := range []struct {
		name   string
		newSim func() *Simulation
	}{
		{"wheel", New},
		{"heap", newHeapSim},
	} {
		b.Run(k.name, func(b *testing.B) {
			b.Run("schedule-fire", func(b *testing.B) {
				s := k.newSim()
				n := 0
				var tick func(*Simulation)
				tick = func(sm *Simulation) {
					n++
					if n < b.N {
						sm.After(1, tick)
					}
				}
				s.After(1, tick)
				b.ReportAllocs()
				b.ResetTimer()
				s.Run()
				if n != b.N {
					b.Fatalf("fired %d events, want %d", n, b.N)
				}
			})

			b.Run("retime", func(b *testing.B) {
				s := k.newSim()
				// A realistic backlog so the heap has levels to sift
				// through and the wheel has occupied buckets.
				for i := 0; i < 64; i++ {
					s.Schedule(Time(1e17+float64(i)), func(*Simulation) {})
				}
				e := s.Schedule(1e18, func(*Simulation) {})
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Reschedule(e, Time(i))
				}
			})

			b.Run("cancel-reschedule", func(b *testing.B) {
				s := k.newSim()
				fn := func(*Simulation) {}
				e := s.Schedule(1e18, fn)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.Cancel()
					e = s.Schedule(Time(i), fn)
				}
			})
		})
	}
}
