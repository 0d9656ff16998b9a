package main

import (
	"sync"
	"time"

	"ssbyz/internal/protocol"
	"ssbyz/internal/sim"
	"ssbyz/internal/simtime"
)

// Tracing from outside the program: spans are taken at the two seams the
// program already offers. A protocol.Node decorator (installed through
// NewNode) times every OnMessage/OnTimer; the protocol.Runtime decorator
// it hands the inner node times every Send/Broadcast/After/Cancel/Trace as
// a child span, so a handler's self time is its span minus its children.
// Spans are folded into per-node totals as they close (an n=64 agreement
// closes ~2 M of them) and merged once the run has stopped.

// traceBase anchors span clocks: time.Since reads the monotonic clock once,
// half the cost of time.Now.
var traceBase = time.Now()

func nowNs() int64 { return int64(time.Since(traceBase)) }

// span is the running total of one span name on one node.
type span struct {
	count int64 // spans closed
	units int64 // work items inside them (messages of a broadcast)
	ns    int64
}

func (s *span) add(ns, units int64) {
	s.count++
	s.units += units
	s.ns += ns
}

func (s *span) merge(o span) {
	s.count += o.count
	s.units += o.units
	s.ns += o.ns
}

// handler classes, by the module that owns the message kind.
const (
	hInitAccept = iota // Initiator, Support, Approve, Ready
	hBroadcast         // Init, Echo, Init′, Echo′
	hOther             // anything else an adversary sends
	hTimer             // OnTimer
	numHandlers
)

func handlerOf(k protocol.MsgKind) int {
	switch k {
	case protocol.Initiator, protocol.Support, protocol.Approve, protocol.Ready:
		return hInitAccept
	case protocol.Init, protocol.Echo, protocol.InitPrime, protocol.EchoPrime:
		return hBroadcast
	}
	return hOther
}

// spans is everything one node's decorators accumulate. Only that node's
// event loop writes it; readers wait for the run to stop.
type spans struct {
	self     [numHandlers]span // handler self time
	handlers int64             // whole handler spans, children included
	send     span              // Runtime.Send/Broadcast, units = messages
	timer    span              // Runtime.After/Cancel
	trace    span              // Runtime.Trace
	transit  []int64           // Broadcast entry → OnMessage entry, ns
}

func (s *spans) merge(o *spans) {
	for i := range s.self {
		s.self[i].merge(o.self[i])
	}
	s.handlers += o.handlers
	s.send.merge(o.send)
	s.timer.merge(o.timer)
	s.trace.merge(o.trace)
	s.transit = append(s.transit, o.transit...)
}

// msgID names one message for transit matching: everything the sender's
// Broadcast and the receiver's OnMessage both see.
type msgID struct {
	from protocol.NodeID
	kind protocol.MsgKind
	g    protocol.NodeID
	m    protocol.Value
	p    protocol.NodeID
	k    int
}

// tracer owns the decorators of one world or cluster.
type tracer struct {
	n int // cluster size: a Broadcast is n messages
	// sent maps a message to its latest Broadcast entry; nil on the
	// simulator, where delivery delay is drawn, not measured.
	sentMu sync.Mutex
	sent   map[msgID]int64

	nodes []*spans
}

func newTracer(n int, transit bool) *tracer {
	t := &tracer{n: n}
	if transit {
		t.sent = make(map[msgID]int64)
	}
	return t
}

// wrap returns a NewNode factory whose nodes are mk's nodes, decorated.
// sim.Run and nettrans.NewCluster call it from the goroutine that builds
// the world, one node after the other.
func (t *tracer) wrap(mk func() protocol.Node) func() protocol.Node {
	return func() protocol.Node {
		s := &spans{}
		t.nodes = append(t.nodes, s)
		return &tracedNode{inner: mk(), t: t, s: s}
	}
}

// total merges every node's spans. Call it only after the world or
// cluster has stopped.
func (t *tracer) total() *spans {
	out := &spans{}
	for _, s := range t.nodes {
		out.merge(s)
	}
	return out
}

// tracedNode decorates a correct node. It forwards InitiateAgreement so
// scripted initiations (sim.Initiator) still find it.
type tracedNode struct {
	inner protocol.Node
	t     *tracer
	s     *spans
	rt    *tracedRuntime
}

var (
	_ protocol.Node = (*tracedNode)(nil)
	_ sim.Initiator = (*tracedNode)(nil)
)

func (n *tracedNode) Start(rt protocol.Runtime) {
	n.rt = &tracedRuntime{Runtime: rt, t: n.t, s: n.s}
	n.inner.Start(n.rt)
}

func (n *tracedNode) OnMessage(from protocol.NodeID, m protocol.Message) {
	t0 := nowNs()
	if n.t.sent != nil {
		n.t.sentMu.Lock()
		at, ok := n.t.sent[msgID{from, m.Kind, m.G, m.M, m.P, m.K}]
		n.t.sentMu.Unlock()
		if ok && t0 >= at {
			n.s.transit = append(n.s.transit, t0-at)
		}
	}
	n.rt.child = 0
	n.inner.OnMessage(from, m)
	d := nowNs() - t0
	n.s.handlers += d
	n.s.self[handlerOf(m.Kind)].add(d-n.rt.child, 1)
}

func (n *tracedNode) OnTimer(tag protocol.TimerTag) {
	t0 := nowNs()
	n.rt.child = 0
	n.inner.OnTimer(tag)
	d := nowNs() - t0
	n.s.handlers += d
	n.s.self[hTimer].add(d-n.rt.child, 1)
}

// InitiateAgreement runs outside any handler span (the driver calls it),
// so its Broadcast is timed as a send but charged to no handler.
func (n *tracedNode) InitiateAgreement(v protocol.Value) error {
	return n.inner.(sim.Initiator).InitiateAgreement(v)
}

// tracedRuntime decorates the runtime a node is started with. ID, Now and
// Params pass through the embedded interface untouched.
type tracedRuntime struct {
	protocol.Runtime
	t     *tracer
	s     *spans
	child int64 // child-span time inside the current handler
}

func (r *tracedRuntime) close(sp *span, t0, units int64) {
	d := nowNs() - t0
	sp.add(d, units)
	r.child += d
}

func (r *tracedRuntime) Send(to protocol.NodeID, m protocol.Message) {
	t0 := nowNs()
	r.Runtime.Send(to, m)
	r.close(&r.s.send, t0, 1)
}

func (r *tracedRuntime) Broadcast(m protocol.Message) {
	t0 := nowNs()
	if r.t.sent != nil {
		r.t.sentMu.Lock()
		r.t.sent[msgID{r.ID(), m.Kind, m.G, m.M, m.P, m.K}] = t0
		r.t.sentMu.Unlock()
	}
	r.Runtime.Broadcast(m)
	r.close(&r.s.send, t0, int64(r.t.n))
}

func (r *tracedRuntime) After(dl simtime.Duration, tag protocol.TimerTag) protocol.TimerID {
	t0 := nowNs()
	id := r.Runtime.After(dl, tag)
	r.close(&r.s.timer, t0, 1)
	return id
}

func (r *tracedRuntime) Cancel(id protocol.TimerID) {
	t0 := nowNs()
	r.Runtime.Cancel(id)
	r.close(&r.s.timer, t0, 1)
}

func (r *tracedRuntime) Trace(ev protocol.TraceEvent) {
	t0 := nowNs()
	r.Runtime.Trace(ev)
	r.close(&r.s.trace, t0, 1)
}
