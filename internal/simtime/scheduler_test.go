package simtime

import (
	"fmt"
	"math/rand"
	"testing"
)

// sched is the scheduling surface the reference-order test drives: the
// timing-wheel Scheduler and the naive refScheduler both implement it.
type sched interface {
	Now() Real
	At(t Real, fn func()) EventID
	Post(t Real, fn func())
	PostHandler(t Real, h Handler)
	PostArg(t Real, h ArgHandler, arg uint64)
	Cancel(id EventID)
	RunUntil(deadline Real)
	Processed() uint64
}

// refScheduler is the naive reference: every pending event in one slice,
// the next one found by a linear scan for the least (tick, schedule
// order). It shares the Scheduler's contract and none of its structure.
type refScheduler struct {
	now       Real
	seq       uint64
	nextID    EventID
	processed uint64
	pending   []refEvent
}

type refEvent struct {
	at        Real
	seq       uint64
	id        EventID
	cancelled bool
	fn        func()
}

func (r *refScheduler) Now() Real         { return r.now }
func (r *refScheduler) Processed() uint64 { return r.processed }

func (r *refScheduler) add(t Real, id EventID, fn func()) {
	r.seq++
	r.pending = append(r.pending, refEvent{at: max(t, r.now), seq: r.seq, id: id, fn: fn})
}

func (r *refScheduler) At(t Real, fn func()) EventID {
	r.nextID++
	r.add(t, r.nextID, fn)
	return r.nextID
}

func (r *refScheduler) Post(t Real, fn func())        { r.add(t, 0, fn) }
func (r *refScheduler) PostHandler(t Real, h Handler) { r.add(t, 0, h.RunEvent) }
func (r *refScheduler) PostArg(t Real, h ArgHandler, arg uint64) {
	r.add(t, 0, func() { h.RunEventArg(arg) })
}

func (r *refScheduler) Cancel(id EventID) {
	for i := range r.pending {
		if r.pending[i].id == id {
			r.pending[i].cancelled = true
		}
	}
}

func (r *refScheduler) RunUntil(deadline Real) {
	for len(r.pending) > 0 {
		next := 0
		for i, e := range r.pending {
			if e.at < r.pending[next].at || (e.at == r.pending[next].at && e.seq < r.pending[next].seq) {
				next = i
			}
		}
		e := r.pending[next]
		if e.at > deadline {
			break
		}
		r.pending = append(r.pending[:next], r.pending[next+1:]...)
		if e.cancelled {
			continue
		}
		r.now = e.at
		r.processed++
		e.fn()
	}
	r.now = max(r.now, deadline)
}

// firing is one executed event: its label and the time it ran at.
type firing struct {
	label int
	at    Real
}

// world runs a script against one sched. Every event records its label
// when it fires; some labels schedule a child event from inside their
// handler, at a delay chosen by the label, so scheduling during dispatch
// (same tick, just inside and just past the horizon, far overflow) is
// exercised too.
type world struct {
	s         sched
	fired     []firing
	ids       []EventID
	nextLabel int
}

type labelFire struct {
	w     *world
	label int
}

func (e labelFire) RunEvent() { e.w.fire(e.label) }

type argLabel struct{ w *world }

func (e argLabel) RunEventArg(arg uint64) { e.w.fire(int(arg)) }

// childDelays are the offsets from now a firing handler schedules at.
// While a handler runs the wheel base equals now, so the middle three
// straddle the wheel horizon exactly.
var childDelays = []Duration{0, 1, 700, wheelSize - 1, wheelSize, wheelSize + 1, 3*wheelSize + 17}

func (w *world) fire(label int) {
	w.fired = append(w.fired, firing{label, w.s.Now()})
	if label%3 != 0 || w.nextLabel > 4000 {
		return
	}
	w.nextLabel++
	at := w.s.Now().Add(childDelays[label%len(childDelays)])
	if label%2 == 0 {
		w.s.PostArg(at, argLabel{w}, uint64(w.nextLabel))
	} else {
		w.s.PostHandler(at, labelFire{w, w.nextLabel})
	}
}

type opKind int

const (
	opAt opKind = iota
	opPost
	opPostHandler
	opPostArg
	opCancel
	opRunUntil
)

// op is one script step with absolute ticks, so the same script replays
// unchanged on the reference.
type op struct {
	kind opKind
	at   Real
	idx  int // opCancel: index into the world's issued IDs
}

func (w *world) apply(o op) {
	switch o.kind {
	case opRunUntil:
		w.s.RunUntil(o.at)
		return
	case opCancel:
		if o.idx < len(w.ids) {
			w.s.Cancel(w.ids[o.idx])
		}
		return
	}
	w.nextLabel++
	label := w.nextLabel
	switch o.kind {
	case opAt:
		w.ids = append(w.ids, w.s.At(o.at, func() { w.fire(label) }))
	case opPost:
		w.s.Post(o.at, func() { w.fire(label) })
	case opPostHandler:
		w.s.PostHandler(o.at, labelFire{w, label})
	case opPostArg:
		w.s.PostArg(o.at, argLabel{w}, uint64(label))
	}
}

// genTick draws a schedule time in one of the regimes the wheel treats
// differently: near, behind the base (forces a rewind once a RunUntil
// deadline left the base ahead of the clock), in the past (clamped), at
// and around the horizon edge of both the base and the clock, and far
// beyond it (overflow heap).
func genTick(rng *rand.Rand, s *Scheduler) Real {
	now := s.Now()
	switch rng.Intn(8) {
	case 0, 1:
		return now + Real(rng.Intn(1000))
	case 2:
		if s.base > now {
			return now + Real(rng.Int63n(int64(s.base-now)))
		}
		return now
	case 3:
		return now - Real(rng.Intn(50))
	case 4:
		return s.base + wheelSize + Real(rng.Intn(3)-1)
	case 5:
		return now + wheelSize + Real(rng.Intn(3)-1)
	case 6:
		return now + Real(2*wheelSize+rng.Intn(40*wheelSize))
	default:
		return now + Real(1000+rng.Intn(wheelSize))
	}
}

// genDeadline draws a RunUntil deadline: short ones that usually stop
// before the next event (leaving the base ahead of the clock), medium
// ones, and long empty stretches.
func genDeadline(rng *rand.Rand, now Real) Real {
	switch rng.Intn(4) {
	case 0, 1:
		return now + Real(rng.Intn(300))
	case 2:
		return now + Real(rng.Intn(3*wheelSize))
	default:
		return now + Real(5*wheelSize+rng.Intn(30*wheelSize))
	}
}

// coverage counts the script ops that hit the wheel's special cases, so
// the property test can prove its scripts reach them.
type coverage struct {
	rewinds, edges, overflow int
}

// runScript builds a seeded script of steps ops against a fresh
// Scheduler, applying each op as it is drawn (ticks near the horizon
// read the scheduler's base), and ends with a drain. check, when
// non-nil, runs after every op.
func runScript(seed int64, steps int, check func(s *Scheduler)) (*world, []op, coverage) {
	rng := rand.New(rand.NewSource(seed))
	s := NewScheduler()
	w := &world{s: s}
	var script []op
	var cov coverage
	for range steps {
		var o op
		switch k := rng.Intn(10); {
		case k < 6:
			o = op{kind: opKind(k % 4), at: genTick(rng, s)}
			switch at := max(o.at, s.Now()); {
			case at < s.base:
				cov.rewinds++
			case at >= s.base+wheelSize-1 && at <= s.base+wheelSize+1:
				cov.edges++
			case at > s.base+wheelSize:
				cov.overflow++
			}
		case k < 7:
			o = op{kind: opCancel, idx: rng.Intn(len(w.ids) + 1)}
		default:
			o = op{kind: opRunUntil, at: genDeadline(rng, s.Now())}
		}
		script = append(script, o)
		w.apply(o)
		if check != nil {
			check(s)
		}
	}
	drain := op{kind: opRunUntil, at: s.Now() + 1<<40}
	script = append(script, drain)
	w.apply(drain)
	if check != nil {
		check(s)
	}
	return w, script, cov
}

// protocolScript is the schedule a simulated world gives the scheduler at
// the default d = 1000 ticks: deliveries at delays in (0, d], half of
// them at exactly d, and cancellable protocol timers at 13d, beyond the
// wheel's horizon, interleaved with RunUntil deadlines at a d/4 cadence.
// It ends with a drain.
func protocolScript(seed int64, steps int) []op {
	const d = 1000
	rng := rand.New(rand.NewSource(seed))
	var script []op
	now := Real(0)
	timers := 0
	for range steps {
		var o op
		switch k := rng.Intn(10); {
		case k < 5:
			o = op{kind: opPostArg, at: now + d}
			if k%2 == 0 {
				o = op{kind: opPostHandler, at: now + Real(1+rng.Intn(d))}
			}
		case k < 7:
			o = op{kind: opAt, at: now + 13*d}
			timers++
		case k < 8:
			o = op{kind: opCancel, idx: rng.Intn(timers + 1)}
		default:
			now += d / 4
			o = op{kind: opRunUntil, at: now}
		}
		script = append(script, o)
	}
	return append(script, op{kind: opRunUntil, at: now + 1<<40})
}

// matchReference replays script on the naive reference and fails t unless
// got, which ran the same script on a Scheduler, fired exactly the same
// events at exactly the same times in exactly the same order.
func matchReference(t *testing.T, got *world, script []op) {
	t.Helper()
	ref := &world{s: &refScheduler{}}
	for _, o := range script {
		ref.apply(o)
	}
	if len(got.fired) != len(ref.fired) {
		t.Fatalf("wheel ran %d events, reference %d", len(got.fired), len(ref.fired))
	}
	for i := range ref.fired {
		if got.fired[i] != ref.fired[i] {
			t.Fatalf("event %d: wheel ran label %d at %d, reference label %d at %d",
				i, got.fired[i].label, got.fired[i].at, ref.fired[i].label, ref.fired[i].at)
		}
	}
	if g, r := got.s.Processed(), ref.s.Processed(); g != r {
		t.Errorf("Processed = %d, reference %d", g, r)
	}
	if g, r := got.s.Now(), ref.s.Now(); g != r {
		t.Errorf("Now = %d, reference %d", g, r)
	}
	if p := got.s.(*Scheduler).Pending(); p != 0 {
		t.Errorf("Pending = %d after drain, want 0", p)
	}
}

// TestSchedulerMatchesReference: over seeded random scripts of At, Post,
// PostHandler, PostArg, Cancel and RunUntil — with long empty stretches,
// ticks at and around base+wheelSize, far overflow timers and deadlines
// that stop before the base (forcing rewinds) — the wheel runs exactly
// the events, at exactly the times, in exactly the order of a naive
// reference sorted by (tick, schedule order). The protocol-shaped
// scripts hold the same on the regime a simulated world runs in:
// deliveries at exactly d in the wheel, 13d timers crossing the horizon
// into the overflow heap.
func TestSchedulerMatchesReference(t *testing.T) {
	var total coverage
	for seed := int64(1); seed <= 60; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			got, script, cov := runScript(seed, 300, nil)
			total.rewinds += cov.rewinds
			total.edges += cov.edges
			total.overflow += cov.overflow
			matchReference(t, got, script)
		})
	}
	if total.rewinds < 100 || total.edges < 100 || total.overflow < 100 {
		t.Errorf("scripts reached %d rewinds, %d horizon-edge and %d overflow schedules; want ≥ 100 each",
			total.rewinds, total.edges, total.overflow)
	}
	heapTimers := 0
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint("protocol", seed), func(t *testing.T) {
			script := protocolScript(seed, 400)
			s := NewScheduler()
			got := &world{s: s}
			for _, o := range script {
				if o.kind == opAt && o.at >= s.base+wheelSize {
					heapTimers++
				}
				got.apply(o)
			}
			matchReference(t, got, script)
		})
	}
	if heapTimers < 1000 {
		t.Errorf("protocol scripts sent %d timers to the overflow heap; want ≥ 1000", heapTimers)
	}
}
