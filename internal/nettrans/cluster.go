package nettrans

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"ssbyz/internal/clock"
	"ssbyz/internal/core"
	"ssbyz/internal/protocol"
	"ssbyz/internal/sim"
	"ssbyz/internal/simnet"
	"ssbyz/internal/simtime"
)

// Cluster is an in-process loopback cluster: n NetNodes, each behind its
// own real socket on 127.0.0.1, sharing one trace recorder. Messages
// leave through the kernel's network stack and come back — everything
// except the physical wire is exercised: the codec, the authentication,
// the deadline drops, genuine concurrency and scheduling. The
// multi-process form of the same topology is cmd/ssbyz-node driven by a
// manifest; both are fed to the property battery through Result.
type Cluster struct {
	cfg   ClusterConfig
	clk   clock.Clock
	fake  *clock.Fake // non-nil on the virtual-time path
	wire  *memWire    // the in-memory wire of a virtual cluster
	epoch time.Time
	rec   *protocol.Recorder
	peers []string // listen addresses by id (restart needs them)

	// mu guards the membership state below: the live-membership
	// operations (StartNode/StopNode/RollNode) rewrite it while ops
	// observers (health endpoints, stats scrapes) read it from their own
	// goroutines.
	mu           sync.Mutex
	nodes        []*NetNode
	parked       map[protocol.NodeID]*Socket // bound-but-unread sockets of crash-faulty/absent slots
	correct      []protocol.NodeID
	incarnations []uint64
}

// ClusterConfig describes an in-process loopback cluster.
type ClusterConfig struct {
	// Params are the protocol constants; Params.D is in ticks.
	Params protocol.Params
	// Tick is the wall-clock tick length (default 100µs).
	Tick time.Duration
	// Transport is TransportUDP (default) or TransportTCP.
	Transport string
	// Faulty maps node ids to adversary state machines; a nil entry is a
	// crash-faulty slot (its address exists, nothing reads it). IDs not
	// present run correct nodes.
	Faulty map[protocol.NodeID]protocol.Node
	// NewNode builds each correct node's state machine (default
	// core.NewNode). The service layer installs the indexed (footnote-9)
	// factory here to multiplex concurrent agreement sessions over the
	// same sockets.
	NewNode func() protocol.Node
	// Conditions is the live chaos schedule shared by every node.
	Conditions []simnet.Condition
	// Clock is the time source (default clock.Real()). Injecting a
	// *clock.Fake switches the cluster to the virtual-time path: real
	// sockets are replaced by the deterministic in-memory wire
	// (virtual.go), nodes boot serialized, and time moves only under
	// Advance/Step — the same codec, authentication, deadline-drop, and
	// chaos code runs, reproducibly.
	Clock clock.Clock
	// Seed drives the virtual wire's delivery-delay randomness (the seed
	// is the run's only entropy, so equal seeds replay byte-identically).
	Seed int64
	// DelayMin/DelayMax bound the virtual wire's per-frame delivery
	// delay in ticks (defaults [D/4, D/2], like livenet; max D/2 so a
	// chaos jitter of up to D/2 on top never crosses the d deadline).
	DelayMin, DelayMax simtime.Duration
	// Absent lists correct slots NOT booted at cluster start: their
	// addresses exist (peers' sends have a destination) but no protocol
	// machine runs, which the model reads as a crash fault — so
	// len(Faulty) + len(Absent) must stay within f. StartNode boots an
	// absent slot later (the orchestrator's scale-up operation), after
	// which it converges like any node recovering from a transient.
	Absent []protocol.NodeID
}

// NewCluster binds n loopback sockets (ephemeral ports), distributes the
// peer table, and starts every node. Callers must Stop it.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.Tick <= 0 {
		cfg.Tick = 100 * time.Microsecond
	}
	if cfg.Transport == "" {
		cfg.Transport = TransportUDP
	}
	if len(cfg.Faulty)+len(cfg.Absent) > cfg.Params.F {
		return nil, fmt.Errorf("nettrans: %d faulty + %d absent nodes exceeds f=%d",
			len(cfg.Faulty), len(cfg.Absent), cfg.Params.F)
	}
	absent := make(map[protocol.NodeID]bool, len(cfg.Absent))
	for _, id := range cfg.Absent {
		if id < 0 || int(id) >= cfg.Params.N {
			return nil, fmt.Errorf("nettrans: absent node %d outside [0,%d)", id, cfg.Params.N)
		}
		if _, faulty := cfg.Faulty[id]; faulty || absent[id] {
			return nil, fmt.Errorf("nettrans: absent node %d is duplicated or also faulty", id)
		}
		absent[id] = true
	}
	if fake, ok := cfg.Clock.(*clock.Fake); ok {
		return newVirtualCluster(cfg, fake, absent)
	}
	if cfg.Clock != nil {
		return nil, fmt.Errorf("nettrans: cluster clock must be nil (wall) or a *clock.Fake (virtual)")
	}
	n := cfg.Params.N
	socks := make([]*Socket, n)
	peers := make([]string, n)
	closeAll := func() {
		for _, s := range socks {
			if s != nil {
				s.Close()
			}
		}
	}
	for i := 0; i < n; i++ {
		s, err := ListenSocket(cfg.Transport, "127.0.0.1:0")
		if err != nil {
			closeAll()
			return nil, err
		}
		socks[i] = s
		peers[i] = s.Addr()
	}
	c := &Cluster{
		cfg:          cfg,
		clk:          clock.Real(),
		epoch:        time.Now(),
		rec:          protocol.NewRecorder(),
		peers:        peers,
		nodes:        make([]*NetNode, n),
		parked:       make(map[protocol.NodeID]*Socket),
		incarnations: make([]uint64, n),
	}
	for i := 0; i < n; i++ {
		id := protocol.NodeID(i)
		machine, isFaulty := cfg.Faulty[id]
		if (isFaulty && machine == nil) || absent[id] {
			// Crash-faulty or not-yet-booted: hold the bound socket so
			// peers' sends have a destination, deliver nothing.
			c.parked[id] = socks[i]
			continue
		}
		if !isFaulty {
			if cfg.NewNode != nil {
				machine = cfg.NewNode()
			} else {
				machine = core.NewNode()
			}
			c.correct = append(c.correct, id)
		}
		nn, err := StartWith(c.nodeConfig(id), socks[i], machine)
		if err != nil {
			c.Stop()
			closeAll()
			return nil, err
		}
		c.nodes[i] = nn
	}
	return c, nil
}

// nodeConfig derives the NodeConfig for slot id at its current
// incarnation, with the per-peer incarnation table snapshot. Callers on
// the wall path hand it to StartWith; the virtual path overrides Clock.
func (c *Cluster) nodeConfig(id protocol.NodeID) NodeConfig {
	return NodeConfig{
		ID:               id,
		Params:           c.cfg.Params,
		Tick:             c.cfg.Tick,
		Transport:        c.cfg.Transport,
		Peers:            c.peers,
		Epoch:            c.epoch,
		Incarnation:      c.incarnations[id],
		PeerIncarnations: append([]uint64(nil), c.incarnations...),
		Rec:              c.rec,
		Conditions:       c.cfg.Conditions,
		Clock:            c.cfg.Clock,
	}
}

// Params returns the protocol constants.
func (c *Cluster) Params() protocol.Params { return c.cfg.Params }

// Tick returns the wall-clock tick length.
func (c *Cluster) Tick() time.Duration { return c.cfg.Tick }

// Recorder returns the shared trace recorder.
func (c *Cluster) Recorder() *protocol.Recorder { return c.rec }

// Correct lists the ids running correct state machines (including slots
// temporarily down mid-roll — a rolled node's trace still belongs to a
// correct node), ascending. Slots booted later via StartNode join the
// list when they boot.
func (c *Cluster) Correct() []protocol.NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]protocol.NodeID(nil), c.correct...)
}

// NowTicks returns ticks since the cluster epoch.
func (c *Cluster) NowTicks() simtime.Real {
	return simtime.Real(c.clk.Since(c.epoch) / c.cfg.Tick)
}

// Virtual returns the cluster's fake clock when it runs in virtual
// time, nil on the wall-clock path. Drivers use it to Advance/Step.
func (c *Cluster) Virtual() *clock.Fake { return c.fake }

// Stop tears every node down; idempotent.
func (c *Cluster) Stop() {
	if c.wire != nil {
		c.wire.timers.Stop()
	}
	c.mu.Lock()
	nodes := append([]*NetNode(nil), c.nodes...)
	for i := range c.nodes {
		c.nodes[i] = nil
	}
	parked := c.parked
	c.parked = nil
	c.mu.Unlock()
	for _, nn := range nodes {
		if nn != nil {
			nn.Stop()
		}
	}
	for _, s := range parked {
		s.Close()
	}
}

// Do executes fn inside node id's event loop (no-op for down slots).
func (c *Cluster) Do(id protocol.NodeID, fn func(protocol.Node)) {
	if nn := c.node(id); nn != nil {
		nn.Do(fn)
	}
}

// DoWait executes fn inside node id's event loop and waits for it.
func (c *Cluster) DoWait(id protocol.NodeID, fn func(protocol.Node)) {
	if nn := c.node(id); nn != nil {
		nn.DoWait(fn)
	}
}

// Stats aggregates every live node's transport counters.
func (c *Cluster) Stats() Stats {
	c.mu.Lock()
	nodes := append([]*NetNode(nil), c.nodes...)
	c.mu.Unlock()
	var total Stats
	for _, nn := range nodes {
		if nn == nil {
			continue
		}
		total.Add(nn.Stats())
	}
	return total
}

// NodeStats returns the transport counters of node id alone (zero when
// the slot is down) — the per-node scrape behind /metrics and the
// campaign's per-peer epoch-drop assertions.
func (c *Cluster) NodeStats(id protocol.NodeID) Stats {
	if nn := c.node(id); nn != nil {
		return nn.Stats()
	}
	return Stats{}
}

// BatchStats aggregates every live node's coalescer counters.
func (c *Cluster) BatchStats() BatchStats {
	c.mu.Lock()
	nodes := append([]*NetNode(nil), c.nodes...)
	c.mu.Unlock()
	var total BatchStats
	for _, nn := range nodes {
		if nn == nil {
			continue
		}
		total.Add(nn.BatchStats())
	}
	return total
}

// Initiate asks correct node g to start agreement on v in the given
// concurrent-invocation slot (footnote 9), in one round trip into its
// event loop. It returns the traced EvInitiate instant — the t0 the
// Validity window [t0−d, t0+4d] is anchored at — and the wire value the
// agreement runs under ("s<slot>|v" on indexed nodes, v itself on
// single-session nodes, which accept slot 0 only). The state machine
// traces its initiation synchronously, so the event is read from a
// recorder cursor taken inside the same event-loop call: a General
// legally re-initiating the same value (Δv apart) cannot match the
// previous agreement's event. Errors reflect the sending-validity
// refusals (IG1–IG3) or a stopped node.
func (c *Cluster) Initiate(g protocol.NodeID, slot int, v protocol.Value) (simtime.Real, protocol.Value, error) {
	type started struct {
		t0   simtime.Real
		wire protocol.Value
		err  error
	}
	ch := make(chan started, 1)
	c.DoWait(g, func(n protocol.Node) {
		var s started
		cursor := c.rec.KindLen(protocol.EvInitiate)
		switch m := n.(type) {
		case sim.SlotInitiator:
			s.wire, s.err = protocol.SlotValue(slot, v), m.InitiateAgreement(slot, v)
		case sim.Initiator:
			s.wire, s.err = v, fmt.Errorf("nettrans: node %d has no concurrent slots", g)
			if slot == 0 {
				s.err = m.InitiateAgreement(v)
			}
		default:
			s.err = fmt.Errorf("nettrans: node %d cannot initiate agreements", g)
		}
		if s.err == nil {
			s.err = fmt.Errorf("nettrans: initiation of %q by node %d was accepted but never traced", s.wire, g)
			c.rec.ForEachKindFrom(protocol.EvInitiate, cursor, func(ev protocol.TraceEvent) {
				if ev.Node == g && ev.M == s.wire {
					s.t0, s.err = ev.RT, nil
				}
			})
		}
		ch <- s
	})
	select {
	case s := <-ch:
		return s.t0, s.wire, s.err
	default:
		return 0, "", fmt.Errorf("nettrans: cluster stopped")
	}
}

// AwaitDecisions waits until every correct node has returned a decision
// for General g with value want, or the timeout passes; it returns how
// many decided. On the wall-clock path it wakes on each traced decide
// (Recorder.Notify); on the virtual path it steps the fake clock timer by
// timer, so the timeout is a virtual-time budget (timeout/Tick ticks)
// and deterministic. Either way the cheap recorder precheck runs first
// and the event-loop query (countDecided) only once the trace says all
// decided.
func (c *Cluster) AwaitDecisions(g protocol.NodeID, want protocol.Value, timeout time.Duration) int {
	needed := len(c.Correct())
	allDecided := func() bool {
		return c.countDecideEvents(g, want) >= needed && c.countDecided(g, want) == needed
	}
	if c.fake != nil {
		horizon := simtime.Duration(c.NowTicks()) + simtime.Duration(timeout/c.cfg.Tick)
		c.StepUntil(allDecided, horizon)
		return c.countDecided(g, want)
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		decided := c.rec.Notify(protocol.EvDecide)
		if allDecided() {
			return needed
		}
		select {
		case <-decided:
		case <-deadline.C:
			return c.countDecided(g, want)
		}
	}
}

// countDecided counts correct nodes that have returned a decision for
// General g with value want.
func (c *Cluster) countDecided(g protocol.NodeID, want protocol.Value) int {
	done := 0
	for _, id := range c.Correct() {
		var returned, decided bool
		var v protocol.Value
		c.DoWait(id, func(n protocol.Node) {
			if cn, ok := n.(*core.Node); ok {
				returned, decided, v = cn.Result(g)
			}
		})
		if returned && decided && v == want {
			done++
		}
	}
	return done
}

// countDecideEvents counts traced EvDecide events of correct nodes for
// (g, want) — a lock-light proxy for countDecided usable every step.
func (c *Cluster) countDecideEvents(g protocol.NodeID, want protocol.Value) int {
	correct := c.Correct()
	isCorrect := make(map[protocol.NodeID]bool, len(correct))
	for _, id := range correct {
		isCorrect[id] = true
	}
	done := 0
	c.rec.ForEachKind(func(ev protocol.TraceEvent) {
		if ev.G == g && ev.M == want && isCorrect[ev.Node] {
			done++
		}
	}, protocol.EvDecide)
	return done
}

// StepUntil drives a virtual cluster one timer at a time until pred
// holds or virtual time reaches the horizon (ticks since epoch); it
// reports whether pred held. On a wall-clock cluster it just evaluates
// pred — real time cannot be stepped.
func (c *Cluster) StepUntil(pred func() bool, horizon simtime.Duration) bool {
	if c.fake == nil {
		return pred()
	}
	for {
		if pred() {
			return true
		}
		if simtime.Duration(c.NowTicks()) >= horizon {
			return false
		}
		if !c.fake.Step() {
			// Heap empty (a stopped cluster): pred will not change again.
			return pred()
		}
	}
}

// Result packages the collected trace for the property battery, exactly
// as BuildResult does for daemon-collected traces. horizon is the run's
// wall-clock extent in ticks (Termination's proof horizon).
func (c *Cluster) Result(horizon simtime.Duration) *sim.Result {
	return BuildResult(c.cfg.Params, c.rec.Events(), c.Correct(), horizon)
}

// BuildResult shapes a live trace for the internal/check battery: events
// are sorted into chronological order (live streams interleave; the
// checkers' session logic assumes per-kind chronological order, which the
// simulator provides for free) and wrapped in the sim.Result form every
// checker consumes. Same-instant events are ordered by node, so the
// shaped trace is canonical: two runs that traced the same events in a
// different same-tick interleaving (e.g. frames packed into different
// batch containers) shape to identical results. correct lists the node
// ids running correct state machines; horizon is the run's extent in
// ticks.
func BuildResult(pp protocol.Params, events []protocol.TraceEvent,
	correct []protocol.NodeID, horizon simtime.Duration) *sim.Result {
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].RT != events[j].RT {
			return events[i].RT < events[j].RT
		}
		return events[i].Node < events[j].Node
	})
	rec := protocol.NewRecorder()
	for _, ev := range events {
		rec.Add(ev)
	}
	ids := append([]protocol.NodeID(nil), correct...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return &sim.Result{
		Scenario: sim.Scenario{Params: pp, RunFor: horizon},
		Rec:      rec,
		Correct:  ids,
		InitErrs: make(map[int]error),
	}
}
