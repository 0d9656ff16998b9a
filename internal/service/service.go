// Package service turns ss-Byz-Agree into an agreement service: a
// replicated log per General, fed by an open-loop synthetic client and
// multiplexed over the footnote-9 concurrent-invocation slots. The paper
// positions the protocol as a primitive for higher layers that invoke it
// recurrently (pulse synchronization, replicated state machines); this
// package is that higher layer, built so the same pump drives both the
// discrete-event simulator and a live socket cluster.
//
// The model is deliberately open-loop: client proposals arrive on a
// Poisson process regardless of how the service is doing, queue in a
// bounded buffer, and are dropped when the buffer is full — so measured
// throughput reflects the protocol's sustained rate (IG1 admits one
// initiation per slot per Δ0 = 13d), not a closed feedback loop that
// politely waits. Each admitted entry becomes one agreement: the pump
// claims a free session slot, initiates the entry's uniquely-tagged wire
// value, and watches the shared trace recorder for the General's decide
// return. The committed prefix of a log is ordered by decision anchor
// rt(τG) — the one per-agreement instant the protocol itself synchronizes
// across correct nodes to within d (IA-1C) — so every correct observer
// reconstructs the same order.
package service

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"ssbyz/internal/core"
	"ssbyz/internal/protocol"
	"ssbyz/internal/sim"
	"ssbyz/internal/simtime"
)

// EntryState is the lifecycle of one proposed log entry.
type EntryState int

const (
	// EntryPending: arrived, queued, not yet handed to the protocol.
	EntryPending EntryState = iota
	// EntryInitiated: occupies a session slot, agreement in flight.
	EntryInitiated
	// EntryCommitted: the General observed its own decide return.
	EntryCommitted
	// EntryFailed: the agreement aborted or outlived Δagr + 8d — the
	// protocol's worst-case extent (IA-3C) — without a decide.
	EntryFailed
	// EntryDropped: arrived while the bounded queue was full (open-loop
	// overload shedding).
	EntryDropped
)

// String names the state for tables and errors.
func (s EntryState) String() string {
	switch s {
	case EntryPending:
		return "pending"
	case EntryInitiated:
		return "initiated"
	case EntryCommitted:
		return "committed"
	case EntryFailed:
		return "failed"
	case EntryDropped:
		return "dropped"
	}
	return "unknown"
}

// Entry is one client proposal and its fate. Times are in ticks of the
// driving runtime (virtual for the simulator, wall-clock ticks live).
type Entry struct {
	Index   int            // arrival order within the log
	Payload protocol.Value // client value
	Wire    protocol.Value // unique on-the-wire value ("<idx>#<payload>", session-namespaced by the node)
	Slot    int            // session slot the agreement ran in
	State   EntryState

	ArrivedAt   simtime.Real
	InitiatedAt simtime.Real
	CommittedAt simtime.Real // decide return rt(τq) at the General
	Anchor      simtime.Real // decide anchor rt(τG) — the log-order key
}

// Workload is one General's open-loop client: a pre-drawn arrival
// schedule and an optional payload generator (default "p<i>").
type Workload struct {
	G        protocol.NodeID
	Arrivals []simtime.Real
	Payload  func(i int) protocol.Value
}

// PoissonArrivals draws count arrival instants after start with
// exponentially distributed gaps of the given mean — a Poisson process,
// the standard open-loop client model. Deterministic in seed.
func PoissonArrivals(seed int64, start simtime.Real, meanGap simtime.Duration, count int) []simtime.Real {
	rng := rand.New(rand.NewSource(seed))
	out := make([]simtime.Real, count)
	t := float64(start)
	for i := range out {
		t += rng.ExpFloat64() * float64(meanGap)
		out[i] = simtime.Real(t)
	}
	return out
}

// Backend is the runtime surface the pump drives: a way to start one
// agreement at General g in the first of the given free
// concurrent-invocation slots that accepts it — InitiateFirst, run in one
// pass over the General's state machine. It returns the slot the search
// stopped at and the exact wire value of the initiation (the node adds
// the footnote-9 "s<slot>|" namespace when it multiplexes sessions) —
// that value is how the pump recognizes the matching decide return in
// the trace. Sending-validity refusals (IG1–IG3) come back as core's
// sentinel errors.
type Backend interface {
	Initiate(g protocol.NodeID, slots []int, v protocol.Value) (slot int, wire protocol.Value, err error)
}

// InitiateFirst tries slots in order on node n and stops at the first
// that does not refuse with IG1 (ErrTooSoon) or IG3 (ErrBackoff): the
// slot it started agreement on, or the slot whose refusal is final for
// this value. When every slot refuses for now it returns the last
// refusal. Single-session nodes accept slot 0 only.
func InitiateFirst(n protocol.Node, slots []int, v protocol.Value) (slot int, wire protocol.Value, err error) {
	if len(slots) == 0 {
		return -1, "", errors.New("service: no free slot")
	}
	for _, slot = range slots {
		switch m := n.(type) {
		case sim.SlotInitiator:
			wire, err = protocol.SlotValue(slot, v), m.InitiateAgreement(slot, v)
		case sim.Initiator:
			wire, err = v, errors.New("service: node has no concurrent slots")
			if slot == 0 {
				err = m.InitiateAgreement(v)
			}
		default:
			return slot, v, errors.New("service: node cannot initiate agreements")
		}
		if !refusedForNow(err) {
			break
		}
	}
	return slot, wire, err
}

// refusedForNow reports an IG1 (rate limit) or IG3 (back-off) refusal:
// the slot may take the entry later, another slot may take it now.
func refusedForNow(err error) bool {
	return errors.Is(err, core.ErrTooSoon) || errors.Is(err, core.ErrBackoff)
}

// PumpConfig assembles a Pump.
type PumpConfig struct {
	Params     protocol.Params
	Backend    Backend
	Recorder   *protocol.Recorder
	Sessions   int // concurrent slots per General (≥ 1)
	QueueLimit int // bounded pending buffer per log (default 4·Sessions)
	Loads      []Workload
}

// logState is one General's replicated log in flight.
type logState struct {
	load      Workload
	next      int   // next arrival index not yet admitted
	queue     []int // entry indices awaiting a free slot, arrival order
	slotEntry []int // slot -> in-flight entry index, -1 when free
	entries   []*Entry
	dropped   int
	// refused: the last pass left the queue head refused (IG1/IG3) by
	// every free slot it tried, so only a later poll can place it.
	refused bool
}

// Pump runs the service control loop. It is single-threaded by design:
// the simulator calls Step from scheduler callbacks, the live runner from
// one goroutine woken by NextWake or a decide; determinism of the sim
// path follows.
type Pump struct {
	pp         protocol.Params
	be         Backend
	rec        *protocol.Recorder
	sessions   int
	queueLimit int
	logs       []*logState
	byWire     map[wireKey]wireRef
	decCursor  int
	failAfter  simtime.Real
}

type wireKey struct {
	g    protocol.NodeID
	wire protocol.Value
}

// wireRef locates an in-flight entry from its wire value.
type wireRef struct {
	log   int
	entry int
}

// NewPump wires the control loop up; Step drives it.
func NewPump(cfg PumpConfig) *Pump {
	sessions := cfg.Sessions
	if sessions < 1 {
		sessions = 1
	}
	queueLimit := cfg.QueueLimit
	if queueLimit <= 0 {
		queueLimit = 4 * sessions
	}
	p := &Pump{
		pp:         cfg.Params,
		be:         cfg.Backend,
		rec:        cfg.Recorder,
		sessions:   sessions,
		queueLimit: queueLimit,
		byWire:     make(map[wireKey]wireRef),
		// Δagr + 8d is the worst-case extent of one invocation (IA-3C);
		// a slot busier than that lost its agreement (abort or faulty
		// stall) and is reclaimed.
		failAfter: simtime.Real(cfg.Params.DeltaAgr()) + 8*simtime.Real(cfg.Params.D),
	}
	for _, load := range cfg.Loads {
		ls := &logState{load: load, slotEntry: make([]int, sessions)}
		for i := range ls.slotEntry {
			ls.slotEntry[i] = -1
		}
		p.logs = append(p.logs, ls)
	}
	return p
}

// Step runs one poll pass at the given instant: harvest decide returns,
// reclaim timed-out slots, admit arrivals into the bounded queues, and
// initiate queued entries into free slots.
func (p *Pump) Step(now simtime.Real) {
	p.harvest()
	for _, ls := range p.logs {
		p.reclaim(ls, now)
		p.admit(ls, now)
		p.initiate(ls, now)
	}
}

// harvest drains new decide returns from the recorder and commits the
// matching in-flight entries. Only the General's own return counts as the
// commit point (Agreement then guarantees every correct node returns the
// same value within 2d — checked separately by the battery).
func (p *Pump) harvest() {
	p.decCursor = p.rec.ForEachKindFrom(protocol.EvDecide, p.decCursor, func(ev protocol.TraceEvent) {
		if ev.Node != ev.G {
			return
		}
		key := wireKey{g: ev.G, wire: ev.M}
		ref, ok := p.byWire[key]
		if !ok {
			return
		}
		delete(p.byWire, key)
		ls := p.logs[ref.log]
		e := ls.entries[ref.entry]
		if e.State != EntryInitiated {
			return
		}
		e.State = EntryCommitted
		e.CommittedAt = ev.RT
		e.Anchor = ev.RTauG
		ls.slotEntry[e.Slot] = -1
	})
}

// reclaim frees slots whose agreement outlived Δagr + 8d without a decide
// return at the General — the abort / stalled case; the entry fails.
func (p *Pump) reclaim(ls *logState, now simtime.Real) {
	for slot, idx := range ls.slotEntry {
		if idx < 0 {
			continue
		}
		e := ls.entries[idx]
		if now-e.InitiatedAt <= p.failAfter {
			continue
		}
		e.State = EntryFailed
		delete(p.byWire, wireKey{g: ls.load.G, wire: e.Wire})
		ls.slotEntry[slot] = -1
	}
}

// admit moves due arrivals into the bounded queue, shedding to
// EntryDropped when the queue is at its limit (open-loop back-pressure).
func (p *Pump) admit(ls *logState, now simtime.Real) {
	for ls.next < len(ls.load.Arrivals) && ls.load.Arrivals[ls.next] <= now {
		i := ls.next
		ls.next++
		e := &Entry{Index: i, ArrivedAt: ls.load.Arrivals[i], Payload: p.payload(ls, i)}
		ls.entries = append(ls.entries, e)
		if len(ls.queue) >= p.queueLimit {
			e.State = EntryDropped
			ls.dropped++
			continue
		}
		ls.queue = append(ls.queue, len(ls.entries)-1)
	}
}

func (p *Pump) payload(ls *logState, i int) protocol.Value {
	if ls.load.Payload != nil {
		return ls.load.Payload(i)
	}
	return protocol.Value("p" + strconv.Itoa(i))
}

// initiate fills free slots from the queue head, one backend call per
// entry over the free slots in ascending order; the next entry's search
// resumes past the slot the previous one stopped at. IG1/IG3 refusals on
// every remaining slot leave the entry queued for the next pass (the
// slots are merely rate-limited); any other refusal fails the entry.
func (p *Pump) initiate(ls *logState, now simtime.Real) {
	ls.refused = false
	if len(ls.queue) == 0 {
		return
	}
	var free []int
	for slot, idx := range ls.slotEntry {
		if idx < 0 {
			free = append(free, slot)
		}
	}
	for len(free) > 0 && len(ls.queue) > 0 {
		idx := ls.queue[0]
		e := ls.entries[idx]
		// Unique per entry so IG2 (same value within Δv) never trips and
		// the decide return is attributable to exactly one entry.
		inner := protocol.Value(strconv.Itoa(e.Index) + "#" + string(e.Payload))
		slot, wire, err := p.be.Initiate(ls.load.G, free, inner)
		switch {
		case refusedForNow(err):
			ls.refused = true
			return
		case err == nil:
			ls.queue = ls.queue[1:]
			e.State = EntryInitiated
			e.InitiatedAt = now
			e.Slot = slot
			e.Wire = wire
			ls.slotEntry[slot] = idx
			p.byWire[wireKey{g: ls.load.G, wire: wire}] = wireRef{log: p.logIndex(ls), entry: idx}
		default:
			ls.queue = ls.queue[1:]
			e.State = EntryFailed
		}
		for len(free) > 0 && free[0] <= slot {
			free = free[1:]
		}
	}
}

// Never is NextWake's answer when no instant is due: nothing arrives, no
// slot is in flight and nothing waits on a refusal.
const Never = simtime.Real(math.MaxInt64)

// NextWake returns the earliest instant after a Step at now at which the
// next Step has work that no decide return will announce: the next
// arrival not yet admitted, the first instant a reclaim fires (an
// in-flight entry's InitiatedAt + Δagr + 8d has passed), and — only while
// IG1/IG3 refused a queued entry on every free slot it tried — now + d/4,
// since the pump cannot see when a node's rate limit lifts. Everything
// else Step does follows a decide return; the wall-clock runner sleeps
// until the earlier of NextWake and the next EvDecide (Recorder.Notify).
func (p *Pump) NextWake(now simtime.Real) simtime.Real {
	wake := Never
	for _, ls := range p.logs {
		if ls.next < len(ls.load.Arrivals) {
			wake = min(wake, ls.load.Arrivals[ls.next])
		}
		for _, idx := range ls.slotEntry {
			if idx >= 0 {
				wake = min(wake, ls.entries[idx].InitiatedAt+p.failAfter+1)
			}
		}
		if ls.refused {
			wake = min(wake, now+max(simtime.Real(p.pp.D/4), 1))
		}
	}
	return wake
}

func (p *Pump) logIndex(ls *logState) int {
	for i, l := range p.logs {
		if l == ls {
			return i
		}
	}
	panic("service: unknown log")
}

// Idle reports whether the pump has nothing left to do: every arrival
// admitted, every queue empty, every slot free. Live drivers stop polling
// here; the sim driver stops rescheduling.
func (p *Pump) Idle() bool {
	for _, ls := range p.logs {
		if ls.next < len(ls.load.Arrivals) || len(ls.queue) > 0 {
			return false
		}
		for _, idx := range ls.slotEntry {
			if idx >= 0 {
				return false
			}
		}
	}
	return true
}

// LogResult is one General's finished replicated log.
type LogResult struct {
	G       protocol.NodeID
	Entries []*Entry // arrival order, every state
	// Committed is the log in its total order: ascending decision anchor
	// rt(τG) (ties by arrival index). IA-1C bounds correct nodes' anchors
	// for one agreement to within d of each other while Timeliness-4
	// keeps distinct agreements > 4d apart, so the anchor order is the
	// same at every correct observer.
	Committed []*Entry
	Dropped   int
	Failed    int
}

// Results snapshots every log after the run.
func (p *Pump) Results() []*LogResult {
	out := make([]*LogResult, 0, len(p.logs))
	for _, ls := range p.logs {
		lr := &LogResult{G: ls.load.G, Entries: ls.entries, Dropped: ls.dropped}
		for _, e := range ls.entries {
			switch e.State {
			case EntryCommitted:
				lr.Committed = append(lr.Committed, e)
			case EntryFailed:
				lr.Failed++
			}
		}
		sort.SliceStable(lr.Committed, func(i, j int) bool {
			a, b := lr.Committed[i], lr.Committed[j]
			if a.Anchor != b.Anchor {
				return a.Anchor < b.Anchor
			}
			return a.Index < b.Index
		})
		out = append(out, lr)
	}
	return out
}

// Stats are the service-level numbers of one log.
type Stats struct {
	Proposed  int
	Committed int
	Dropped   int
	Failed    int
	// MakespanTicks spans first arrival to last commit.
	MakespanTicks simtime.Duration
	// Latencies holds commit − arrival per committed entry, in ticks,
	// log order.
	Latencies []simtime.Duration
}

// Stats computes the service-level numbers of one finished log.
func (lr *LogResult) Stats() Stats {
	st := Stats{Proposed: len(lr.Entries), Committed: len(lr.Committed),
		Dropped: lr.Dropped, Failed: lr.Failed}
	if len(lr.Committed) == 0 {
		return st
	}
	first := lr.Entries[0].ArrivedAt
	last := simtime.Real(0)
	for _, e := range lr.Committed {
		if e.CommittedAt > last {
			last = e.CommittedAt
		}
		st.Latencies = append(st.Latencies, simtime.Duration(e.CommittedAt-e.ArrivedAt))
	}
	st.MakespanTicks = simtime.Duration(last - first)
	return st
}

func validateLoads(pp protocol.Params, faulty map[protocol.NodeID]protocol.Node, loads []Workload) error {
	seen := make(map[protocol.NodeID]bool)
	for _, load := range loads {
		if load.G < 0 || int(load.G) >= pp.N {
			return fmt.Errorf("service: workload General %d out of range [0,%d)", load.G, pp.N)
		}
		if seen[load.G] {
			return fmt.Errorf("service: two workloads for General %d", load.G)
		}
		seen[load.G] = true
		if _, bad := faulty[load.G]; bad {
			return fmt.Errorf("service: workload General %d is faulty", load.G)
		}
		for i := 1; i < len(load.Arrivals); i++ {
			if load.Arrivals[i] < load.Arrivals[i-1] {
				return fmt.Errorf("service: workload General %d arrivals not sorted", load.G)
			}
		}
	}
	return nil
}
