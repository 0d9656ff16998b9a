// Package eventloop is the shared single-threaded execution core of the
// real-time transports (internal/livenet over in-process channels,
// internal/nettrans over UDP/TCP sockets): an unbounded FIFO mailbox
// drained by one goroutine per node — so protocol state machines run
// without locking, exactly as under the discrete-event simulator — and a
// tracked set of timers whose shutdown is race-free.
//
// Both pieces are clock-agnostic (internal/clock): NewTimers schedules
// on the wall clock, NewTimersOn on any injected Clock — a clock.Fake
// turns the same node into a deterministic virtual-time runtime. A
// gated mailbox (NewMailboxGated) additionally reports every undrained
// event to the clock's quiescence Gate, which is how a Fake knows no
// work is in flight before it advances.
//
// The shutdown contract is the delicate part. An AfterFunc body that
// has already fired runs concurrently with Stop; if Stop merely stopped
// the timers and returned, such a body could still be mid-flight —
// enqueueing into closing mailboxes, touching transport state that the
// caller is about to tear down. Timers therefore gates every body on the
// stopped flag under the set's lock and counts in-flight bodies; Stop
// flips the flag, cancels the pending timers, and then WAITS for the
// in-flight count to drain. After Stop returns, no timer body is running
// and none will start. The gate is purely the set's own lock and
// counter — nothing about it depends on how the underlying clock
// schedules, so it holds identically for wall-clock timers (bodies on
// their own goroutines) and for a Fake (bodies on the advancing
// goroutine).
package eventloop

import (
	"sync"
	"time"

	"ssbyz/internal/clock"
)

// Mailbox is an unbounded FIFO of closures drained by a single goroutine
// (Loop). Enqueue after Close is a silent no-op, so concurrent producers
// — receive loops, timer bodies — need no shutdown coordination of their
// own.
type Mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	// queue[head:] are the undrained events. The backing array is kept:
	// it rewinds when the queue drains and compacts when an append would
	// grow it, so a mailbox at a steady depth enqueues without allocating.
	queue  []func()
	head   int
	closed bool
	dead   chan struct{}
	// gate, when non-nil, holds one busy token per event from Enqueue
	// until the event has run (or the mailbox closed with it undrained).
	gate clock.Gate
}

// NewMailbox returns an open mailbox.
func NewMailbox() *Mailbox { return NewMailboxGated(nil) }

// NewMailboxGated returns an open mailbox that reports in-flight events
// to g (one AddBusy per accepted Enqueue, one DoneBusy once the event
// has run or been discarded by Close). A nil g is plain NewMailbox.
func NewMailboxGated(g clock.Gate) *Mailbox {
	m := &Mailbox{dead: make(chan struct{}), gate: g}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// Enqueue appends one event; it reports false if the mailbox is closed
// (the event is dropped).
func (m *Mailbox) Enqueue(fn func()) bool {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return false
	}
	if len(m.queue) == cap(m.queue) && m.head > 0 {
		n := copy(m.queue, m.queue[m.head:])
		clear(m.queue[n:])
		m.queue, m.head = m.queue[:n], 0
	}
	m.queue = append(m.queue, fn)
	if m.gate != nil {
		m.gate.AddBusy(1)
	}
	m.cond.Signal()
	m.mu.Unlock()
	return true
}

// Close wakes and terminates Loop; undrained events are discarded (their
// busy tokens released). Close is idempotent.
func (m *Mailbox) Close() {
	m.mu.Lock()
	var dropped int
	if !m.closed {
		m.closed = true
		close(m.dead)
		dropped = len(m.queue) - m.head
		m.queue, m.head = nil, 0
	}
	m.cond.Broadcast()
	m.mu.Unlock()
	if m.gate != nil && dropped > 0 {
		m.gate.DoneBusy(dropped)
	}
}

// Done is closed when the mailbox shuts down.
func (m *Mailbox) Done() <-chan struct{} { return m.dead }

// Loop drains the mailbox until Close, running each event on the calling
// goroutine. Exactly one goroutine may run Loop.
func (m *Mailbox) Loop() {
	for {
		m.mu.Lock()
		for m.head == len(m.queue) && !m.closed {
			m.cond.Wait()
		}
		if m.closed {
			m.mu.Unlock()
			return
		}
		fn := m.queue[m.head]
		m.queue[m.head] = nil
		if m.head++; m.head == len(m.queue) {
			m.queue, m.head = m.queue[:0], 0
		}
		m.mu.Unlock()
		fn()
		if m.gate != nil {
			m.gate.DoneBusy(1)
		}
	}
}

// Timers tracks clock timers so that shutdown is total: after Stop
// returns, no registered body is running and none will ever start.
type Timers struct {
	clk     clock.Clock
	mu      sync.Mutex
	stopped bool
	timers  map[clock.Timer]struct{}
	// inflight counts bodies past the stopped-gate; Stop waits for it.
	inflight sync.WaitGroup
}

// NewTimers returns an empty timer set on the wall clock.
func NewTimers() *Timers { return NewTimersOn(clock.Real()) }

// NewTimersOn returns an empty timer set scheduling on clk.
func NewTimersOn(clk clock.Clock) *Timers {
	return &Timers{clk: clk, timers: make(map[clock.Timer]struct{})}
}

// AfterFunc schedules fn to run after d of clock time. It returns nil if
// the set is already stopped. The returned timer may be passed to Cancel
// (or its own Stop) for individual best-effort cancellation; a body that
// already started is handled by the Stop gate, not by the caller.
func (t *Timers) AfterFunc(d time.Duration, fn func()) clock.Timer {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stopped {
		return nil
	}
	var tm clock.Timer
	tm = t.clk.AfterFunc(d, func() {
		t.mu.Lock()
		if t.stopped {
			t.mu.Unlock()
			return
		}
		t.inflight.Add(1)
		delete(t.timers, tm)
		t.mu.Unlock()
		defer t.inflight.Done()
		fn()
	})
	t.timers[tm] = struct{}{}
	return tm
}

// Cancel stops one pending timer and forgets it. Cancelling a fired or
// already-cancelled timer is a no-op; without the forget step, the set
// would retain one entry (and its captured closure) per timer whose body
// never ran — a leak in long-running processes that cancel protocol
// timers at the end of every agreement.
func (t *Timers) Cancel(tm clock.Timer) {
	if tm == nil {
		return
	}
	tm.Stop()
	t.mu.Lock()
	delete(t.timers, tm)
	t.mu.Unlock()
}

// Stop cancels every pending timer, prevents new ones, and blocks until
// every in-flight body has returned. Idempotent. Bodies must not call
// back into the set's AfterFunc/Stop while holding resources Stop's
// caller is waiting on, and must not block forever.
func (t *Timers) Stop() {
	t.mu.Lock()
	if t.stopped {
		t.mu.Unlock()
		t.inflight.Wait()
		return
	}
	t.stopped = true
	for tm := range t.timers {
		tm.Stop()
	}
	t.timers = make(map[clock.Timer]struct{})
	t.mu.Unlock()
	t.inflight.Wait()
}
