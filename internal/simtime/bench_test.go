package simtime

import "testing"

func BenchmarkSchedulerAtStep(b *testing.B) {
	s := NewScheduler()
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.At(Real(i), fn)
		s.Step()
	}
}

func BenchmarkSchedulerMixed(b *testing.B) {
	// The simulator's actual pattern: bursts of schedules, occasional
	// cancels, interleaved steps.
	s := NewScheduler()
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id1 := s.At(Real(i+10), fn)
		s.At(Real(i+5), fn)
		s.At(Real(i+20), fn)
		s.Cancel(id1)
		s.Step()
		s.Step()
	}
}

// BenchmarkSchedulerPostStep measures the uncancellable fast path the
// transport uses for message deliveries: no EventID, no map entry, and no
// per-event allocation (the heap stores events by value).
func BenchmarkSchedulerPostStep(b *testing.B) {
	s := NewScheduler()
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Post(Real(i), fn)
		s.Step()
	}
}

type nopHandler struct{}

func (nopHandler) RunEvent() {}

// BenchmarkSchedulerPostHandlerStep is the handler variant (what delivery
// batches use).
func BenchmarkSchedulerPostHandlerStep(b *testing.B) {
	s := NewScheduler()
	var h nopHandler
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.PostHandler(Real(i), h)
		s.Step()
	}
}

// BenchmarkSchedulerDeepQueue schedules into a standing queue of 4096
// events — the heap-depth regime of an n=64 committee mid-agreement.
func BenchmarkSchedulerDeepQueue(b *testing.B) {
	s := NewScheduler()
	fn := func() {}
	for i := 0; i < 4096; i++ {
		s.Post(Real(i*1000), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Post(s.Now()+Real(500), fn)
		s.Step()
	}
}

func BenchmarkClockReadAt(b *testing.B) {
	c := DriftClock(12345, 137, 1<<40)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.ReadAt(Real(i))
	}
}

func BenchmarkWrapSub(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = WrapSub(Local(i), Local(i/2), 1<<30)
	}
}

type nopArgHandler struct{}

func (nopArgHandler) RunEventArg(uint64) {}

// benchStorm posts 10⁶ events over [500, 1000] ticks — a broadcast
// storm's in-flight window — and drains them; post stands for one event.
func benchStorm(b *testing.B, post func(s *Scheduler, i int)) {
	const inFlight = 1_000_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewScheduler()
		for j := 0; j < inFlight; j++ {
			post(s, j)
		}
		s.RunUntil(2000)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*inFlight), "ns/event")
}

// BenchmarkSchedulerStorm compares a plain Handler storm with the PostArg
// one the simulated transport posts per message recipient.
func BenchmarkSchedulerStorm(b *testing.B) {
	b.Run("handler", func(b *testing.B) {
		benchStorm(b, func(s *Scheduler, i int) { s.PostHandlerAfter(Duration(500+i%501), nopHandler{}) })
	})
	b.Run("arg", func(b *testing.B) {
		benchStorm(b, func(s *Scheduler, i int) { s.PostArg(s.Now().Add(Duration(500+i%501)), nopArgHandler{}, uint64(i)) })
	})
}
