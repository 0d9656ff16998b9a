package simtime

import (
	"math/bits"
	"sync"
)

// EventID identifies a cancellable scheduled event. Uncancellable events
// (the Post* family) have no ID and cost neither an allocation nor a map
// entry — they are the bulk of a simulation's events (message deliveries).
type EventID uint64

// Handler is a no-closure event payload: implementations carry their own
// state and are invoked by RunEvent when the event fires. Posting a
// caller-owned (typically pooled) handler performs zero heap allocations.
type Handler interface {
	RunEvent()
}

// ArgHandler is the argument-carrying form of Handler: one shared handler
// can stand for many events that differ only in a word of state.
// The simulated transport posts one event per message recipient against
// the send's single record, with the recipient's ID as the argument.
type ArgHandler interface {
	RunEventArg(arg uint64)
}

// funcHandler adapts a plain func() to Handler. Closure-based events (the
// At/Post family) box one per call; the hot delivery path never does.
type funcHandler func()

func (f funcHandler) RunEvent() { f() }

// argEvent is the id of every PostArg event: its h is an ArgHandler, and
// arg is passed to it. Cancellable IDs count up from 1 and never reach it.
const argEvent = EventID(1 << 63)

// event is one wheel entry: 32 bytes, the dominant memory of a large-n
// broadcast storm, where millions of events are in flight at once. Its
// tick is implied by the bucket it sits in (and its wrap-aware distance
// from the wheel base), and it carries no sequence number: a bucket is a
// FIFO and overflow events migrate into it before any direct insert for
// its tick can happen, so bucket order already is schedule order. h holds
// a Handler, or an ArgHandler when id == argEvent.
type event struct {
	id  EventID
	arg uint64
	h   any
}

// timedEvent is an overflow-heap entry: an event plus its explicit tick
// and the sequence number that breaks same-tick ties in the heap.
type timedEvent struct {
	at  Real
	seq uint64
	event
}

// chunkEvents sizes a bucket chunk so the whole chunk (127 × 32-byte
// events + the next pointer = 4072 bytes) fits the 4 KiB allocator size
// class (TestEventAndChunkSize pins both sizes). Buckets are chains of
// these fixed chunks instead of growing slices: a run shorter than one
// wheel rotation used to regrow every touched bucket from zero capacity
// through the large-alloc doubling ladder. The size suits small worlds,
// whose occupied ticks hold a handful of events; a broadcast storm's
// bucket is just a longer chain.
const chunkEvents = 127

// chunk is one fixed-size segment of a bucket's FIFO.
type chunk struct {
	ev   [chunkEvents]event
	next *chunk
}

// chunkPool recycles chunks across every Scheduler in the process: a
// campaign runs thousands of small worlds in turn, and on parallel
// harness workers, and each world draws the chunks earlier worlds
// drained instead of allocating its own. A pooled chunk is always
// all-zero with next == nil (releaseBucket), so nothing one world wrote
// is visible to another.
var chunkPool = sync.Pool{New: func() any { return new(chunk) }}

// bucket is one wheel slot: an append-only chain of chunks. All chunks
// before tail are full, so entry i lives in chunk i/chunkEvents at
// offset i%chunkEvents. n counts entries appended since the last reset.
type bucket struct {
	head, tail *chunk
	n          int
}

// wheelBits sizes the timing wheel: one bucket per tick over a horizon of
// 2^wheelBits ticks, the smallest power of two covering 2d at the default
// d = 1000 ticks. Every delivery (delay ≤ d) lands in the wheel; protocol
// timers, whose ticks lie several d ahead, take the overflow heap, which
// keeps (tick, schedule order) exact. The wheel is embedded in every
// Scheduler, so its size is what each simulated world allocates, zeroes
// and hands the garbage collector to scan (TestEventAndChunkSize bounds it).
const wheelBits = 11

const wheelSize = 1 << wheelBits
const wheelMask = wheelSize - 1

// Scheduler is a deterministic discrete-event scheduler. Events scheduled
// for the same instant run in the order they were scheduled. Scheduler is
// not safe for concurrent use; the discrete-event runtimes drive it from a
// single goroutine.
//
// The queue is a timing wheel (one FIFO bucket per tick over a fixed
// horizon) with an overflow binary min-heap for events beyond the horizon:
// O(1) schedule and pop for the near-future events that dominate a network
// simulation, instead of an O(log E) sift through a heap of every
// in-flight message. Buckets migrate from the overflow heap exactly when
// their tick enters the horizon, before any direct insert for that tick
// can happen, so the execution order is identical to a single global
// priority queue ordered by (tick, schedule order).
type Scheduler struct {
	now Real
	// seq numbers overflow-heap entries in push order.
	seq uint64

	// wheel[(base+k) & wheelMask] holds the events for tick base+k,
	// 0 ≤ k < wheelSize, appended in schedule order. base ≤ now at all
	// times. cursor indexes the first unconsumed event of bucket base;
	// curChunk/curBase cache the chunk holding entry cursor (curBase =
	// index of that chunk's first entry) so peek/Step stay O(1).
	wheel    [wheelSize]bucket
	base     Real
	cursor   int
	curChunk *chunk
	curBase  int
	inWheel  int

	// occupied has bit slot set exactly when wheel[slot] holds events
	// (b.n > 0), so peek finds the next occupied tick without visiting
	// the empty ones.
	occupied [wheelSize / 64]uint64

	// overflow holds events at ticks ≥ base+wheelSize, ordered by
	// (at, seq).
	overflow []timedEvent

	nextID EventID
	// live tracks cancellable events only: false = pending, true =
	// cancelled (lazy deletion; the entry is skipped when reached).
	live map[EventID]bool

	processed uint64
}

// NewScheduler returns a scheduler positioned at real time 0.
func NewScheduler() *Scheduler {
	return &Scheduler{live: make(map[EventID]bool)}
}

// Now returns the current virtual real time.
func (s *Scheduler) Now() Real { return s.now }

// Processed returns how many events have run so far. It is a deterministic
// cost metric: for a fixed scenario and seed the count is identical on
// every machine, which is what the S1 scaling experiment reports where
// wall-clock would break run-to-run reproducibility.
func (s *Scheduler) Processed() uint64 { return s.processed }

// AddProcessed credits n extra events to the Processed counter. The batched
// delivery path of the simulated transport uses it so that Processed keeps
// counting individual message deliveries: a batch of k same-tick deliveries
// is one scheduler event but k units of simulated work, and the metric must
// stay byte-identical with the per-recipient fan-out it replaced.
func (s *Scheduler) AddProcessed(n uint64) { s.processed += n }

// tickOfSlot recovers the tick a wheel slot currently stands for: the
// unique t ≡ slot (mod wheelSize) within [base, base+wheelSize).
func (s *Scheduler) tickOfSlot(slot int) Real {
	off := (slot - int(s.base)) & wheelMask
	return s.base + Real(off)
}

// schedule enqueues e for tick at, clamping past times to the present
// (scheduling in the past can only arise from adversarial or transient
// inputs).
func (s *Scheduler) schedule(at Real, e event) {
	if at < s.now {
		at = s.now
	}
	if at < s.base {
		// peek ran the base ahead of the clock hunting for the next event
		// and a RunUntil deadline stopped execution before reaching it
		// (base tracks the next event's tick, now the deadline). A new
		// event in [now, base) needs the wheel rewound, or its bucket
		// would not be reached until one full wheel period later.
		s.rewind(at)
	}
	if at < s.base+wheelSize {
		s.bucketAppend(int(at)&wheelMask, e)
		s.inWheel++
		return
	}
	s.heapPush(at, e)
}

// bucketAppend appends e to wheel[slot], extending its chunk chain from
// chunkPool and marking the slot occupied on its first chunk.
func (s *Scheduler) bucketAppend(slot int, e event) {
	b := &s.wheel[slot]
	i := b.n % chunkEvents
	if i == 0 {
		c := chunkPool.Get().(*chunk)
		if b.tail == nil {
			b.head, b.tail = c, c
			s.occupied[slot>>6] |= 1 << (slot & 63)
		} else {
			b.tail.next = c
			b.tail = c
		}
	}
	b.tail.ev[i] = e
	b.n++
}

// releaseBucket returns the chunk chain of wheel[slot] to chunkPool and
// resets the slot. Only the prefix of each chunk written since it left
// the pool is cleared: entries at index ≥ b.n were never touched, so a
// three-event bucket costs a 96-byte clear, not a whole chunk. Clearing
// also drops stale Handler references, so pooled chunks hold no
// pointers for the garbage collector to chase.
func (s *Scheduler) releaseBucket(slot int) {
	b := &s.wheel[slot]
	left := b.n
	for c := b.head; c != nil; {
		next := c.next
		clear(c.ev[:min(left, chunkEvents)])
		c.next = nil
		chunkPool.Put(c)
		left -= chunkEvents
		c = next
	}
	*b = bucket{}
	s.occupied[slot>>6] &^= 1 << (slot & 63)
}

// nextOccupied returns the first occupied slot at or after slot in
// wheel order, wrapping around. The wheel must hold an event.
func (s *Scheduler) nextOccupied(slot int) int {
	i := slot >> 6
	word := s.occupied[i] & (^uint64(0) << (slot & 63))
	for range len(s.occupied) + 1 {
		if word != 0 {
			return i<<6 | bits.TrailingZeros64(word)
		}
		i = (i + 1) % len(s.occupied)
		word = s.occupied[i]
	}
	panic("simtime: occupancy bitmap lost a bucket")
}

// seek positions curChunk/curBase at the chunk holding entry s.cursor of
// the base bucket b. Amortized O(1): the cache only ever moves forward
// until a bucket reset clears it.
func (s *Scheduler) seek(b *bucket) {
	if s.curChunk == nil {
		s.curChunk, s.curBase = b.head, 0
	}
	for s.cursor-s.curBase >= chunkEvents {
		s.curChunk = s.curChunk.next
		s.curBase += chunkEvents
	}
}

// rewind moves the wheel base back to tick to (now ≤ to < base), used on
// the rare staged-run pattern where events are scheduled between
// RunUntil calls at times the base has already swept past. It evacuates
// every pending wheel event to the overflow heap and re-migrates the
// ones inside the new horizon, so bucket contents always match the
// window [base, base+wheelSize). Evacuated events are numbered afresh in
// bucket order, which keeps each tick's schedule order; they cannot tie
// with events already in the heap, which all lie beyond the old horizon.
// O(wheelSize); never on the hot path.
func (s *Scheduler) rewind(to Real) {
	for i := range s.wheel {
		b := &s.wheel[i]
		if b.n == 0 {
			continue
		}
		at := s.tickOfSlot(i)
		// The base bucket's consumed prefix is stale (Step does not
		// zero slots); only entries from the cursor on are pending.
		skip := 0
		if at == s.base {
			skip = s.cursor
		}
		idx := 0
		for c := b.head; c != nil; c = c.next {
			limit := min(b.n-idx, chunkEvents)
			for j := 0; j < limit; j++ {
				if idx >= skip {
					e := c.ev[j]
					if e.h != nil || e.id != 0 {
						s.heapPush(at, e)
					}
				}
				idx++
			}
		}
		s.releaseBucket(i)
	}
	s.inWheel = 0
	s.cursor, s.curChunk, s.curBase = 0, nil, 0
	s.base = to
	s.migrate()
}

// migrate moves overflow events whose tick is inside the horizon into
// their buckets.
func (s *Scheduler) migrate() {
	edge := s.base + wheelSize - 1
	for len(s.overflow) > 0 && s.overflow[0].at <= edge {
		e := s.heapPop()
		s.bucketAppend(int(e.at)&wheelMask, e.event)
		s.inWheel++
	}
}

// At schedules fn to run at real time t and returns an ID for Cancel.
func (s *Scheduler) At(t Real, fn func()) EventID {
	s.nextID++
	s.live[s.nextID] = false
	s.schedule(t, event{id: s.nextID, h: funcHandler(fn)})
	return s.nextID
}

// After schedules fn to run dl ticks of real time from now.
func (s *Scheduler) After(dl Duration, fn func()) EventID {
	return s.At(s.now.Add(dl), fn)
}

// Post schedules fn to run at real time t without cancellation support:
// no ID is assigned and no bookkeeping entry is created. Use it for
// fire-and-forget events off the hot path (the delivery bulk goes through
// PostArg and PostHandler, which do not even box a closure).
func (s *Scheduler) Post(t Real, fn func()) {
	s.PostHandler(t, funcHandler(fn))
}

// PostAfter is Post at dl ticks from now.
func (s *Scheduler) PostAfter(dl Duration, fn func()) {
	s.Post(s.now.Add(dl), fn)
}

// PostHandler schedules h.RunEvent at real time t without cancellation
// support and without any allocation in the scheduler (the event is a
// value in a bucket and h is caller-owned, typically pooled).
func (s *Scheduler) PostHandler(t Real, h Handler) {
	s.schedule(t, event{h: h})
}

// PostHandlerAfter is PostHandler at dl ticks from now.
func (s *Scheduler) PostHandlerAfter(dl Duration, h Handler) {
	s.PostHandler(s.now.Add(dl), h)
}

// PostArg schedules h.RunEventArg(arg) at real time t, uncancellable and
// allocation-free like PostHandler. Events posted against one handler
// with different arguments share the handler's state.
func (s *Scheduler) PostArg(t Real, h ArgHandler, arg uint64) {
	s.schedule(t, event{id: argEvent, arg: arg, h: h})
}

// Cancel prevents a scheduled event from running. Cancelling an event that
// already ran or was already cancelled is a no-op.
func (s *Scheduler) Cancel(id EventID) {
	if cancelled, ok := s.live[id]; ok && !cancelled {
		s.live[id] = true
	}
}

// Pending reports how many events (including cancelled placeholders) are
// still queued.
func (s *Scheduler) Pending() int {
	return s.inWheel - s.cursor + len(s.overflow)
}

// peek positions the scheduler at the next runnable event and returns its
// time. Cancelled placeholders encountered on the way are consumed without
// running. It returns false when no events remain.
func (s *Scheduler) peek() (Real, bool) {
	for {
		slot := int(s.base) & wheelMask
		b := &s.wheel[slot]
		if s.cursor < b.n {
			s.seek(b)
			e := &s.curChunk.ev[s.cursor-s.curBase]
			if e.id != 0 && e.id != argEvent && s.live[e.id] {
				delete(s.live, e.id)
				*e = event{} // release references
				s.cursor++
				continue
			}
			return s.base, true
		}
		if s.inWheel == s.cursor && len(s.overflow) == 0 {
			return 0, false
		}
		// The base bucket is drained: recycle it and move the base
		// straight to the next tick that holds an event — the next
		// occupied slot while the wheel holds any, else the earliest
		// overflow tick — instead of stepping through the empty ticks
		// between. Jumping within the wheel is safe because every
		// overflow event lies at or beyond the old horizon
		// base+wheelSize, past the slot the base lands on: the one
		// migrate below moves exactly the events a tick-by-tick walk
		// would have, each tick's in (tick, seq) order, before any direct
		// insert for those ticks can happen.
		s.inWheel -= b.n
		s.releaseBucket(slot)
		s.cursor, s.curChunk, s.curBase = 0, nil, 0
		if s.inWheel > 0 {
			s.base += Real((s.nextOccupied(slot) - slot) & wheelMask)
		} else {
			s.base = s.overflow[0].at
		}
		s.migrate()
	}
}

// Step runs the next event, advancing virtual time to it. It returns false
// when no events remain.
func (s *Scheduler) Step() bool {
	at, ok := s.peek()
	if !ok {
		return false
	}
	// peek left curChunk/curBase positioned at the cursor entry.
	e := s.curChunk.ev[s.cursor-s.curBase]
	s.cursor++
	// The consumed slot is NOT zeroed: its handler reference lives until
	// the bucket is released, which clears the chunk's written prefix and
	// retains only pooled (already live) send records or an occasional
	// closure for a bounded time — where clearing 32 bytes per event is a
	// measurable share of a large-n run.
	s.now = at
	s.processed++
	switch {
	case e.id == argEvent:
		e.h.(ArgHandler).RunEventArg(e.arg)
	case e.h != nil:
		if e.id != 0 {
			delete(s.live, e.id)
		}
		e.h.(Handler).RunEvent()
	}
	return true
}

// RunUntil executes events until virtual time would exceed deadline or no
// events remain. The clock is left at min(deadline, time of last event).
// Events scheduled exactly at deadline do run.
func (s *Scheduler) RunUntil(deadline Real) {
	for {
		at, ok := s.peek()
		if !ok || at > deadline {
			break
		}
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// ---- overflow heap (binary min-heap by (at, seq)) ----

func (s *Scheduler) heapLess(i, j int) bool {
	if s.overflow[i].at != s.overflow[j].at {
		return s.overflow[i].at < s.overflow[j].at
	}
	return s.overflow[i].seq < s.overflow[j].seq
}

func (s *Scheduler) heapPush(at Real, e event) {
	s.seq++
	s.overflow = append(s.overflow, timedEvent{at: at, seq: s.seq, event: e})
	i := len(s.overflow) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.heapLess(i, parent) {
			break
		}
		s.overflow[i], s.overflow[parent] = s.overflow[parent], s.overflow[i]
		i = parent
	}
}

func (s *Scheduler) heapPop() timedEvent {
	top := s.overflow[0]
	n := len(s.overflow) - 1
	s.overflow[0] = s.overflow[n]
	s.overflow[n] = timedEvent{}
	s.overflow = s.overflow[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && s.heapLess(l, smallest) {
			smallest = l
		}
		if r < n && s.heapLess(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		s.overflow[i], s.overflow[smallest] = s.overflow[smallest], s.overflow[i]
		i = smallest
	}
	return top
}
