package simnet

import (
	"math/rand"

	"ssbyz/internal/protocol"
	"ssbyz/internal/simtime"
)

// nodeRT implements protocol.Runtime for one simulated node.
type nodeRT struct {
	w      *World
	id     protocol.NodeID
	clock  simtime.Clock
	nextID protocol.TimerID
	timers map[protocol.TimerID]simtime.EventID
}

var _ protocol.Runtime = (*nodeRT)(nil)

func (rt *nodeRT) ID() protocol.NodeID { return rt.id }

func (rt *nodeRT) Now() simtime.Local { return rt.clock.ReadAt(rt.w.sch.Now()) }

func (rt *nodeRT) Params() protocol.Params { return rt.w.cfg.Params }

func (rt *nodeRT) Send(to protocol.NodeID, m protocol.Message) {
	rt.w.fanOut(rt.id, int(to), int(to)+1, m, drawDelay)
}

func (rt *nodeRT) Broadcast(m protocol.Message) {
	rt.w.fanOut(rt.id, 0, rt.w.cfg.Params.N, m, drawDelay)
}

func (rt *nodeRT) After(dl simtime.Duration, tag protocol.TimerTag) protocol.TimerID {
	if dl < 0 {
		dl = 0
	}
	if rt.timers == nil {
		rt.timers = make(map[protocol.TimerID]simtime.EventID)
	}
	rt.nextID++
	id := rt.nextID
	evID := rt.w.sch.After(rt.clock.RealAfter(dl), func() {
		delete(rt.timers, id)
		if n := rt.w.nodes[rt.id]; n != nil {
			n.OnTimer(tag)
		}
	})
	rt.timers[id] = evID
	return id
}

func (rt *nodeRT) Cancel(id protocol.TimerID) {
	if evID, ok := rt.timers[id]; ok {
		rt.w.sch.Cancel(evID)
		delete(rt.timers, id)
	}
}

func (rt *nodeRT) Trace(ev protocol.TraceEvent) {
	ev.Node = rt.id
	ev.RT = rt.w.sch.Now()
	ev.Tau = rt.Now()
	if ev.TauG != 0 || ev.Kind == protocol.EvDecide || ev.Kind == protocol.EvAbort || ev.Kind == protocol.EvIAccept {
		ev.RTauG = rt.realOf(ev.TauG)
	}
	rt.w.rec.Add(ev)
}

// realOf converts a recent local reading back to virtual real time by
// rolling the clock back from the current instant. It is exact for ideal
// clocks and accurate to rounding for drifting ones; valid for readings in
// the recent past (well under half the wrap modulus).
func (rt *nodeRT) realOf(tau simtime.Local) simtime.Real {
	now := rt.w.sch.Now()
	elapsedLocal := simtime.WrapSub(rt.Now(), tau, rt.clock.Wrap)
	return now - simtime.Real(rt.clock.RealAfter(elapsedLocal))
}

// AdversaryRuntime is the extended runtime available to Byzantine node
// implementations in the simulator: precise control over per-message
// timing within the network's legal delay range (the standard
// "adversary schedules the network" power) plus shared randomness.
// It deliberately does NOT allow sender spoofing: the paper's network
// authenticates identities once it is non-faulty.
type AdversaryRuntime interface {
	protocol.Runtime
	// SendAt delivers m to a single node with a chosen delay, clamped into
	// the network's [DelayMin, DelayMax].
	SendAt(to protocol.NodeID, m protocol.Message, delay simtime.Duration)
	// Rand exposes the deterministic world RNG.
	Rand() *rand.Rand
	// RealNow leaks virtual real time (an omniscient adversary).
	RealNow() simtime.Real
}

func (rt *nodeRT) SendAt(to protocol.NodeID, m protocol.Message, delay simtime.Duration) {
	rt.w.fanOut(rt.id, int(to), int(to)+1, m, rt.w.clampDelay(delay))
}

func (rt *nodeRT) Rand() *rand.Rand { return rt.w.rng }

func (rt *nodeRT) RealNow() simtime.Real { return rt.w.sch.Now() }

var _ AdversaryRuntime = (*nodeRT)(nil)
