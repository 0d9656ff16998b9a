package simtime

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestSubAndAdd(t *testing.T) {
	cases := []struct {
		name      string
		now, then Local
		want      Duration
	}{
		{"forward", 100, 30, 70},
		{"zero", 55, 55, 0},
		{"backward", 30, 100, -70},
		{"negative readings", -10, -50, 40},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.now.Sub(tc.then); got != tc.want {
				t.Errorf("(%d).Sub(%d) = %d, want %d", tc.now, tc.then, got, tc.want)
			}
			if got := tc.then.Add(tc.want); got != tc.now {
				t.Errorf("(%d).Add(%d) = %d, want %d", tc.then, tc.want, got, tc.now)
			}
		})
	}
}

func TestRealArithmetic(t *testing.T) {
	if got := Real(500).Sub(Real(200)); got != 300 {
		t.Errorf("Real Sub = %d, want 300", got)
	}
	if got := Real(500).Add(Duration(-100)); got != 400 {
		t.Errorf("Real Add = %d, want 400", got)
	}
}

func TestWrapSub(t *testing.T) {
	const wrap = 1000
	cases := []struct {
		name      string
		now, then Local
		want      Duration
	}{
		{"plain", 700, 600, 100},
		{"across wrap", 50, 950, 100},
		{"zero", 123, 123, 0},
		{"half backwards", 100, 700, -600 + 1000}, // 400 forward (< wrap/2)
		{"future then", 900, 100, -200},           // 800 > wrap/2 → negative
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := WrapSub(tc.now, tc.then, wrap); got != tc.want {
				t.Errorf("WrapSub(%d,%d,%d) = %d, want %d", tc.now, tc.then, wrap, got, tc.want)
			}
		})
	}
}

func TestWrapSubNoWrap(t *testing.T) {
	if got := WrapSub(10, 500, 0); got != -490 {
		t.Errorf("WrapSub with wrap=0 = %d, want -490", got)
	}
}

func TestWrapAdd(t *testing.T) {
	const wrap = 1000
	cases := []struct {
		name string
		t    Local
		dl   Duration
		want Local
	}{
		{"plain", 100, 200, 300},
		{"across wrap", 900, 200, 100},
		{"negative across", 100, -200, 900},
		{"zero", 500, 0, 500},
		{"full cycle", 321, 1000, 321},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := WrapAdd(tc.t, tc.dl, wrap); got != tc.want {
				t.Errorf("WrapAdd(%d,%d,%d) = %d, want %d", tc.t, tc.dl, wrap, got, tc.want)
			}
		})
	}
}

// TestWrapRoundTripProperty: for any reading and any interval shorter than
// wrap/2, advancing then subtracting recovers the interval exactly.
func TestWrapRoundTripProperty(t *testing.T) {
	const wrap = 1 << 20
	f := func(start int64, dlRaw int64) bool {
		base := Local(((start % wrap) + wrap) % wrap)
		dl := Duration(((dlRaw % (wrap / 2)) + wrap/2) % (wrap / 2)) // [0, wrap/2)
		end := WrapAdd(base, dl, wrap)
		return WrapSub(end, base, wrap) == dl
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestWrapSubAntisymmetry: WrapSub(a,b) == −WrapSub(b,a) unless the gap is
// exactly wrap/2.
func TestWrapSubAntisymmetry(t *testing.T) {
	const wrap = 1 << 16
	f := func(aRaw, bRaw int64) bool {
		a := Local(((aRaw % wrap) + wrap) % wrap)
		b := Local(((bRaw % wrap) + wrap) % wrap)
		d1, d2 := WrapSub(a, b, wrap), WrapSub(b, a, wrap)
		if d1 == wrap/2 || d2 == wrap/2 {
			return true // boundary is one-sided by convention
		}
		return d1 == -d2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClockZeroValueIsIdeal(t *testing.T) {
	var c Clock
	for _, rt := range []Real{0, 1, 1000, 1 << 40} {
		if got := c.ReadAt(rt); got != Local(rt) {
			t.Errorf("zero clock ReadAt(%d) = %d", rt, got)
		}
	}
	if got := c.RealAfter(500); got != 500 {
		t.Errorf("zero clock RealAfter(500) = %d", got)
	}
}

func TestClockOffset(t *testing.T) {
	c := Clock{OffsetTicks: 250}
	if got := c.ReadAt(100); got != 350 {
		t.Errorf("ReadAt(100) = %d, want 350", got)
	}
}

func TestDriftClockFastAndSlow(t *testing.T) {
	fast := DriftClock(0, +1000, 0) // +1000 ppm
	slow := DriftClock(0, -1000, 0)
	const span = 1_000_000
	if got := fast.ReadAt(span); got != span+1000 {
		t.Errorf("fast ReadAt = %d, want %d", got, span+1000)
	}
	if got := slow.ReadAt(span); got != span-1000 {
		t.Errorf("slow ReadAt = %d, want %d", got, span-1000)
	}
}

// TestRealAfterNeverEarly: a timer scheduled via RealAfter must never fire
// before the local clock has advanced by the requested amount.
func TestRealAfterNeverEarly(t *testing.T) {
	clocks := []Clock{
		{},
		DriftClock(0, +500, 0),
		DriftClock(0, -500, 0),
		DriftClock(123, +1_000_000/2, 0), // 50% fast
	}
	f := func(startRaw, dlRaw int64) bool {
		start := Real(startRaw % (1 << 30))
		if start < 0 {
			start = -start
		}
		dl := Duration(dlRaw % (1 << 20))
		if dl < 0 {
			dl = -dl
		}
		for _, c := range clocks {
			fire := start.Add(c.RealAfter(dl))
			if c.ReadAt(fire).Sub(c.ReadAt(start)) < dl {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClockWrap(t *testing.T) {
	c := Clock{OffsetTicks: 900, Wrap: 1000}
	if got := c.ReadAt(200); got != 100 {
		t.Errorf("wrapped ReadAt(200) = %d, want 100", got)
	}
}

func TestClockString(t *testing.T) {
	if s := (Clock{}).String(); s == "" {
		t.Error("empty Clock String")
	}
}

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.At(30, func() { order = append(order, 3) })
	s.At(10, func() { order = append(order, 1) })
	s.At(20, func() { order = append(order, 2) })
	s.At(10, func() { order = append(order, 11) }) // same instant: FIFO
	s.RunUntil(100)
	want := []int{1, 11, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("ran %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("ran %v, want %v", order, want)
		}
	}
	if s.Now() != 100 {
		t.Errorf("Now = %d, want 100 (deadline)", s.Now())
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler()
	ran := false
	id := s.At(10, func() { ran = true })
	s.Cancel(id)
	s.Cancel(id) // double cancel is a no-op
	s.RunUntil(100)
	if ran {
		t.Error("cancelled event ran")
	}
}

func TestSchedulerPastSchedulingClamps(t *testing.T) {
	s := NewScheduler()
	s.At(50, func() {})
	s.RunUntil(50)
	ran := false
	s.At(10, func() { ran = true }) // in the past → clamped to now
	s.RunUntil(60)
	if !ran {
		t.Error("past-scheduled event never ran")
	}
}

func TestSchedulerAfter(t *testing.T) {
	s := NewScheduler()
	var at Real
	s.At(40, func() {
		s.After(5, func() { at = s.Now() })
	})
	s.RunUntil(100)
	if at != 45 {
		t.Errorf("After fired at %d, want 45", at)
	}
}

func TestSchedulerStep(t *testing.T) {
	s := NewScheduler()
	if s.Step() {
		t.Error("Step on empty scheduler returned true")
	}
	s.At(5, func() {})
	if !s.Step() {
		t.Error("Step with one event returned false")
	}
	if s.Now() != 5 {
		t.Errorf("Now = %d after Step, want 5", s.Now())
	}
}

func TestSchedulerDeadlineEventsRun(t *testing.T) {
	s := NewScheduler()
	ran := false
	s.At(100, func() { ran = true })
	s.RunUntil(100)
	if !ran {
		t.Error("event exactly at deadline did not run")
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 5 {
			s.After(1, recurse)
		}
	}
	s.At(0, recurse)
	s.RunUntil(10)
	if depth != 5 {
		t.Errorf("nested chain depth = %d, want 5", depth)
	}
}

func TestSchedulerPending(t *testing.T) {
	s := NewScheduler()
	s.At(1, func() {})
	s.At(2, func() {})
	if got := s.Pending(); got != 2 {
		t.Errorf("Pending = %d, want 2", got)
	}
	s.RunUntil(5)
	if got := s.Pending(); got != 0 {
		t.Errorf("Pending after run = %d, want 0", got)
	}
}

// TestSchedulerPostInterleavesWithAt: uncancellable Post events share the
// same (time, schedule-order) total order as cancellable At events.
func TestSchedulerPostInterleavesWithAt(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.At(10, func() { order = append(order, 1) })
	s.Post(10, func() { order = append(order, 2) }) // same instant: FIFO
	s.PostAfter(5, func() { order = append(order, 0) })
	s.At(20, func() { order = append(order, 3) })
	s.RunUntil(100)
	want := []int{0, 1, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("ran %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("ran %v, want %v", order, want)
		}
	}
}

type recordingHandler struct {
	fired *[]Real
	s     *Scheduler
}

func (h recordingHandler) RunEvent() { *h.fired = append(*h.fired, h.s.Now()) }

// TestSchedulerPostHandler: handler events fire exactly like fn events.
func TestSchedulerPostHandler(t *testing.T) {
	s := NewScheduler()
	var fired []Real
	h := recordingHandler{fired: &fired, s: s}
	s.PostHandler(30, h)
	s.PostHandlerAfter(10, h)
	s.RunUntil(100)
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 30 {
		t.Errorf("handler events fired at %v, want [10 30]", fired)
	}
}

// TestSchedulerProcessed: the deterministic cost counter counts executed
// events only — cancelled placeholders are excluded.
func TestSchedulerProcessed(t *testing.T) {
	s := NewScheduler()
	id := s.At(5, func() {})
	s.At(10, func() {})
	s.Post(15, func() {})
	s.Cancel(id)
	s.RunUntil(100)
	if got := s.Processed(); got != 2 {
		t.Errorf("Processed = %d, want 2", got)
	}
}

// TestSchedulerCancelBookkeeping: cancellable IDs leave no residue in the
// live map once run or cancelled, so long simulations don't leak.
func TestSchedulerCancelBookkeeping(t *testing.T) {
	s := NewScheduler()
	id := s.At(5, func() {})
	s.At(6, func() {})
	s.Cancel(id)
	s.RunUntil(10)
	if len(s.live) != 0 {
		t.Errorf("live map holds %d entries after drain, want 0", len(s.live))
	}
	s.Cancel(id)            // long after it was cancelled: no-op
	s.Cancel(EventID(9999)) // never issued: no-op
	if len(s.live) != 0 {
		t.Errorf("stale Cancel created %d entries", len(s.live))
	}
}

// TestSchedulerScheduleBehindBase: the staged-run pattern. A RunUntil
// deadline can stop execution with the wheel base already swept forward
// to the next pending event's tick; an event then scheduled between the
// deadline and that tick must still run at its own time and in order
// (regression: it used to land in a bucket the base had passed and run
// one wheel period late, after the later event).
func TestSchedulerScheduleBehindBase(t *testing.T) {
	s := NewScheduler()
	var order []Real
	note := func() { order = append(order, s.Now()) }
	s.Post(5000, note)
	s.RunUntil(1000) // base hunts ahead to 5000; now stays 1000
	if s.Now() != 1000 {
		t.Fatalf("Now = %d after RunUntil(1000), want 1000", s.Now())
	}
	s.Post(1100, note) // between the deadline and the pending event
	s.Post(30000, note)
	s.RunUntil(100000)
	want := []Real{1100, 5000, 30000}
	if len(order) != len(want) {
		t.Fatalf("fired at %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired at %v, want %v", order, want)
		}
	}
	if s.Now() != 100000 {
		t.Errorf("Now = %d, want 100000", s.Now())
	}
}

// TestSchedulerRewindKeepsCancelSemantics: rewinding the wheel must not
// resurrect cancelled events nor lose pending cancellable ones.
func TestSchedulerRewindKeepsCancelSemantics(t *testing.T) {
	s := NewScheduler()
	ran := make(map[string]bool)
	s.At(5000, func() { ran["keep"] = true })
	id := s.At(5001, func() { ran["cancelled"] = true })
	s.Cancel(id)
	s.RunUntil(1000) // sweeps base forward toward 5000
	s.Post(1100, func() { ran["early"] = true })
	s.RunUntil(100000)
	if !ran["early"] || !ran["keep"] || ran["cancelled"] {
		t.Errorf("ran = %v, want early+keep only", ran)
	}
	if s.Pending() != 0 {
		t.Errorf("Pending = %d after drain, want 0", s.Pending())
	}
}

// TestSchedulerManyEventsSorted: a property-style stress of heap ordering.
func TestSchedulerManyEventsSorted(t *testing.T) {
	s := NewScheduler()
	var fired []Real
	// Deterministic pseudo-random times.
	x := int64(12345)
	for i := 0; i < 500; i++ {
		x = (x*6364136223846793005 + 1442695040888963407) % (1 << 20)
		at := Real(x)
		if at < 0 {
			at = -at
		}
		s.At(at, func() { fired = append(fired, s.Now()) })
	}
	s.RunUntil(math.MaxInt32)
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("events fired out of order: %d after %d", fired[i], fired[i-1])
		}
	}
	if len(fired) != 500 {
		t.Errorf("fired %d events, want 500", len(fired))
	}
}

// orderProbe is an ArgHandler recording each event's argument as its label.
type orderProbe struct{ order *[]int }

func (p orderProbe) RunEventArg(arg uint64) { *p.order = append(*p.order, int(arg)) }

// labelHandler is a Handler recording its fixed label.
type labelHandler struct {
	order *[]int
	label int
}

func (h labelHandler) RunEvent() { *h.order = append(*h.order, h.label) }

func wantOrder(t *testing.T, got []int, want ...int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("ran %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ran %v, want %v", got, want)
		}
	}
}

// postMix schedules labels first..first+2 at tick at through At,
// PostHandler and PostArg, in that order.
func postMix(s *Scheduler, order *[]int, at Real, first int) {
	s.At(at, func() { *order = append(*order, first) })
	s.PostHandler(at, labelHandler{order, first + 1})
	s.PostArg(at, orderProbe{order}, uint64(first+2))
}

// TestSchedulerArgInterleaves: events at one tick run in schedule order
// whichever of At, PostHandler and PostArg scheduled them.
func TestSchedulerArgInterleaves(t *testing.T) {
	s := NewScheduler()
	var order []int
	postMix(s, &order, 10, 1)
	postMix(s, &order, 10, 4)
	s.PostArg(5, orderProbe{&order}, 0)
	s.RunUntil(100)
	wantOrder(t, order, 0, 1, 2, 3, 4, 5, 6)
	if got := s.Processed(); got != 7 {
		t.Errorf("Processed = %d, want 7", got)
	}
}

// TestSchedulerArgOrderThroughMigration: events parked in the overflow
// heap keep their schedule order when their tick enters the wheel, and
// events scheduled for that tick afterwards run after them.
func TestSchedulerArgOrderThroughMigration(t *testing.T) {
	s := NewScheduler()
	var order []int
	far := Real(3 * wheelSize)
	postMix(s, &order, far, 1)
	postMix(s, &order, far, 4)
	s.Post(far-10, func() {
		// far is inside the horizon now: these go straight to its bucket.
		postMix(s, &order, far, 7)
	})
	s.RunUntil(far + 1)
	wantOrder(t, order, 1, 2, 3, 4, 5, 6, 7, 8, 9)
}

// TestSchedulerArgOrderThroughRewind: a rewind evacuates the wheel to the
// heap and renumbers the events in bucket order; ties must keep schedule
// order both for ticks that migrate straight back and for ticks left in
// the heap beyond the new horizon.
func TestSchedulerArgOrderThroughRewind(t *testing.T) {
	s := NewScheduler()
	var order []int
	const near, far = Real(5000), Real(20000) // far: inside the old horizon only
	postMix(s, &order, near, 10)
	postMix(s, &order, far, 20)
	s.RunUntil(1000)                       // the base hunts ahead to near; now stays 1000
	s.PostArg(1100, orderProbe{&order}, 1) // behind the base: rewinds
	postMix(s, &order, near, 13)
	postMix(s, &order, far, 23)
	s.RunUntil(far)
	wantOrder(t, order, 1, 10, 11, 12, 13, 14, 15, 20, 21, 22, 23, 24, 25)
}

// TestSchedulerCancelBetweenArgs: a cancelled At between two PostArg events
// at one tick neither runs nor disturbs its neighbours.
func TestSchedulerCancelBetweenArgs(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.PostArg(10, orderProbe{&order}, 1)
	id := s.At(10, func() { order = append(order, 99) })
	s.PostArg(10, orderProbe{&order}, 2)
	s.Cancel(id)
	s.RunUntil(100)
	wantOrder(t, order, 1, 2)
	if got := s.Processed(); got != 2 {
		t.Errorf("Processed = %d, want 2", got)
	}
	if len(s.live) != 0 {
		t.Errorf("live map holds %d entries after drain, want 0", len(s.live))
	}
}

// TestEventAndChunkSize pins the wheel's memory layout: a 32-byte event,
// and a chunk that fits the 16 KiB allocator size class, so a new field
// cannot silently double the in-flight memory of a broadcast storm.
func TestEventAndChunkSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 32 {
		t.Errorf("event is %d bytes, want 32", got)
	}
	if got := unsafe.Sizeof(chunk{}); got > 16<<10 {
		t.Errorf("chunk is %d bytes, want at most 16 KiB", got)
	}
}
