// Package nettrans is the socket transport: protocol.Runtime over real
// UDP and TCP sockets, speaking the internal/wire binary codec, with the
// same event-loop/mailbox execution core (internal/eventloop) as the
// in-process livenet transport. It is the layer that takes the protocol
// state machines across process boundaries — serialization, sender
// authentication, packet reordering, genuine wall-clock scheduling — and
// the substrate of the node daemon (cmd/ssbyz-node), the `ssbyz-bench
// -cluster` mode, the virtual-time campaigns, and the wire-rate pump
// (pump.go).
//
// Two transports, two fidelity points against the paper's model:
//
//   - UDP ("udp", the default) is paper-faithful: one datagram per
//     message, loss allowed, and the bounded-delay axiom enforced by
//     deadline drops — a frame whose send tick is more than d in the past
//     when it arrives is discarded, because the model's messages arrive
//     within d or not at all. A late frame therefore counts as message
//     loss at the transport, never as a late delivery the proofs exclude.
//   - TCP ("tcp") is the lossless baseline: a length-delimited frame
//     stream per peer pair with no deadline drops, for separating
//     protocol behaviour from packet loss when debugging.
//
// Sender authentication re-establishes the paper's "the receiver knows
// the sending node of every message" assumption from bytes: every frame
// carries the claimed sender id, and the transport verifies it — for UDP
// against the datagram's source address (peers send from their bound
// listen socket, so source address equals manifest address); for TCP
// against the connection's hello frame and remote IP. Frames from another
// cluster epoch (a previous incarnation on a reused port) are dropped.
// On an open network this would be TLS/MAC territory; on the loopback
// and LAN deployments this package targets, address checking is the
// honest equivalent of the model's authenticated channels (DESIGN.md §7).
package nettrans

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ssbyz/internal/clock"
	"ssbyz/internal/eventloop"
	"ssbyz/internal/protocol"
	"ssbyz/internal/simnet"
	"ssbyz/internal/simtime"
	"ssbyz/internal/wire"
)

// Transport names.
const (
	// TransportUDP is datagram-per-message with deadline drops (the
	// paper-faithful default).
	TransportUDP = "udp"
	// TransportTCP is the lossless stream baseline.
	TransportTCP = "tcp"
)

// NodeConfig configures one socket-backed node.
type NodeConfig struct {
	// ID is this node's identity; Peers[ID] is its own listen address.
	ID protocol.NodeID
	// Params are the protocol constants; Params.D (in ticks) is the
	// deadline-drop horizon on UDP.
	Params protocol.Params
	// Tick is the wall-clock duration of one tick (default 100µs).
	Tick time.Duration
	// Transport selects TransportUDP (default) or TransportTCP.
	Transport string
	// Listen is the address to bind ("127.0.0.1:0" for an ephemeral
	// loopback port). Ignored when a pre-bound socket is supplied.
	Listen string
	// Peers are the peer listen addresses indexed by NodeID, length N.
	Peers []string
	// Epoch is the shared cluster epoch: the wall-clock instant every
	// node's clock reads tick 0, and the base of the incarnation id
	// frames carry. All nodes of a cluster must agree on it (the
	// manifest fixes it).
	Epoch time.Time
	// Incarnation is this node's incarnation number within the cluster
	// epoch: a rolled replacement boots with the previous incarnation
	// plus one, and its frames carry Epoch + Incarnation as their wire
	// epoch id. Zero for a first boot — the wire format is unchanged.
	Incarnation uint64
	// PeerIncarnations seeds the per-peer expected incarnations (length
	// N, indexed by node id; nil means every peer at incarnation 0). The
	// receive pipeline rejects any frame whose epoch id is not the
	// expected incarnation of its claimed sender (epoch_drops), which is
	// what makes an orchestrated roll's old frames provably dead; the
	// expectation is advanced at runtime with BumpPeerEpoch.
	PeerIncarnations []uint64
	// Rec receives trace events (default: a fresh recorder).
	Rec *protocol.Recorder
	// Sink, when non-nil, additionally receives every trace event as it
	// is recorded — the node daemon feeds its ops health machine from it.
	Sink func(protocol.TraceEvent)
	// Conditions is the live chaos schedule (scripted partitions, jitter,
	// churn mapped onto the socket path — see chaos.go).
	Conditions []simnet.Condition
	// Clock is the time source behind the epoch clock, the deadline
	// drops, and every chaos/protocol timer (default clock.Real()). The
	// virtual cluster injects a shared *clock.Fake here.
	Clock clock.Clock
}

// Stats counts the transport's traffic and drop classes. All counters are
// cumulative since Start.
type Stats struct {
	// Sent counts protocol messages handed to the socket (including ones
	// the chaos layer then dropped — the sender paid for them).
	Sent int64
	// Received counts messages accepted and delivered to protocol code.
	Received int64
	// LateDrops counts frames discarded for violating the d deadline
	// (UDP only — the bounded-delay axiom enforced at the transport).
	LateDrops int64
	// AuthDrops counts frames whose claimed sender failed the source
	// address check.
	AuthDrops int64
	// EpochDrops counts frames from another cluster incarnation.
	EpochDrops int64
	// ChaosDrops counts messages eaten by the scripted condition schedule.
	ChaosDrops int64
	// DecodeDrops counts frames that failed to decode (corrupt/truncated).
	DecodeDrops int64
	// DupDrops counts frames discarded by receive-side duplicate
	// suppression: their link sequence number was already admitted from
	// the same sender (replay.go). The defense against datagram
	// duplication and fresh replays — at-most-once delivery per number.
	DupDrops int64
	// SeqStale counts frames whose link sequence number fell behind the
	// sender's anti-replay window, too old to judge, and so dropped. A
	// correct link reorders far less than the window spans (DESIGN.md
	// §11); a non-zero count is a replay or a reorder beyond the model.
	SeqStale int64
	// Clamps counts sends whose scripted environment delay (jitter + wan)
	// exceeded D/2 and was clamped to keep the run inside the paper's
	// bounded-delay model. Non-zero means the schedule asked for more
	// delay than the model admits (previously this clamp was silent).
	Clamps int64
	// RateDeferrals counts frames a wan bandwidth cap pushed into a later
	// d window.
	RateDeferrals int64
	// DupFrames counts extra frame copies injected by duplicate windows.
	DupFrames int64
	// ReorderHolds counts frames held back by reorder windows.
	ReorderHolds int64
	// CorruptFrames counts frames whose encoded bytes a corrupt window
	// flipped a byte in.
	CorruptFrames int64
	// ReplayFrames counts old frames re-emitted by replay windows.
	ReplayFrames int64
	// ForgeFrames counts extra frames emitted under a forged sender id.
	ForgeFrames int64
}

// CounterNames is the fixed order of the Stats counters as a vector: the
// keys of the ops plane's /metrics counters and the names Pairs prints.
var CounterNames = []string{
	"sent", "received", "late_drops", "auth_drops", "epoch_drops",
	"chaos_drops", "decode_drops", "dup_drops", "seq_stale", "clamps",
	"rate_deferrals", "dup_frames", "reorder_holds", "corrupt_frames",
	"replay_frames", "forge_frames",
}

// fields lists pointers to s's counters in CounterNames order: the one
// mapping between counter names and Stats fields, read by Counters and
// StatsOf.
func (s *Stats) fields() []*int64 {
	return []*int64{
		&s.Sent, &s.Received, &s.LateDrops, &s.AuthDrops, &s.EpochDrops,
		&s.ChaosDrops, &s.DecodeDrops, &s.DupDrops, &s.SeqStale, &s.Clamps,
		&s.RateDeferrals, &s.DupFrames, &s.ReorderHolds, &s.CorruptFrames,
		&s.ReplayFrames, &s.ForgeFrames,
	}
}

// Counters flattens s into the CounterNames order.
func (s Stats) Counters() []int64 {
	fields := s.fields()
	vec := make([]int64, len(fields))
	for i, p := range fields {
		vec[i] = *p
	}
	return vec
}

// StatsOf is the inverse of Counters: it reads a vector in CounterNames
// order back into Stats.
func StatsOf(vec []int64) Stats {
	var s Stats
	for i, p := range s.fields() {
		*p = vec[i]
	}
	return s
}

// Pairs renders the counter vector as space-separated "name=value"
// pairs in CounterNames order.
func (s Stats) Pairs() string {
	vec := s.Counters()
	parts := make([]string, len(vec))
	for i, name := range CounterNames {
		parts[i] = fmt.Sprintf("%s=%d", name, vec[i])
	}
	return strings.Join(parts, " ")
}

// Add accumulates other into s (cluster- and driver-side aggregation).
func (s *Stats) Add(other Stats) {
	s.Sent += other.Sent
	s.Received += other.Received
	s.LateDrops += other.LateDrops
	s.AuthDrops += other.AuthDrops
	s.EpochDrops += other.EpochDrops
	s.ChaosDrops += other.ChaosDrops
	s.DecodeDrops += other.DecodeDrops
	s.DupDrops += other.DupDrops
	s.SeqStale += other.SeqStale
	s.Clamps += other.Clamps
	s.RateDeferrals += other.RateDeferrals
	s.DupFrames += other.DupFrames
	s.ReorderHolds += other.ReorderHolds
	s.CorruptFrames += other.CorruptFrames
	s.ReplayFrames += other.ReplayFrames
	s.ForgeFrames += other.ForgeFrames
}

// BatchStats counts the frame coalescer's packing work. Deliberately kept
// OUTSIDE Stats: the counter vector counts what nodes observe, which
// coalescing must not change — only how bytes are packed.
// TestVirtualWireDigests hashes Stats, never BatchStats, with the trace.
type BatchStats struct {
	// BatchesSent counts multi-frame container datagrams written.
	BatchesSent int64
	// BatchedFrames counts inner frames that rode inside those containers.
	// A single-frame flush ships in a container of one and is counted by
	// neither field.
	BatchedFrames int64
}

// Add accumulates other into s.
func (s *BatchStats) Add(other BatchStats) {
	s.BatchesSent += other.BatchesSent
	s.BatchedFrames += other.BatchedFrames
}

// NetNode runs one protocol node behind a socket. It implements
// protocol.Runtime; the node's OnMessage/OnTimer run on a single
// event-loop goroutine exactly as under the simulator.
type NetNode struct {
	cfg       NodeConfig
	clk       clock.Clock
	epochBase uint64 // uint64(Epoch.UnixNano()): incarnation 0's epoch id
	epochID   uint64 // epochBase + cfg.Incarnation: the id stamped on sends
	// peerEpochs[id] is the epoch id this node currently accepts from
	// peer id (epochBase + that peer's incarnation). Atomic because the
	// receive loops read it per frame while an orchestrator bumps it
	// mid-roll from its own goroutine.
	peerEpochs []atomic.Uint64
	node       protocol.Node
	rec        *protocol.Recorder
	mbox       *eventloop.Mailbox
	timers     *eventloop.Timers
	chaos      *chaos
	trans      transport
	co         *coalescer
	wg         sync.WaitGroup

	timerMu sync.Mutex
	nextID  protocol.TimerID
	pending map[protocol.TimerID]clock.Timer

	// payloadScratch/frameScratch back the allocation-free immediate-send
	// path. Safe without a lock: protocol.Runtime's contract is that all
	// methods are called from the node's single event loop, and the
	// coalescer copies the bytes before returning.
	payloadScratch, frameScratch []byte

	// windows[id] is sender id's anti-replay window (replay.go), the
	// defense against datagram duplication and fresh replay. Each is
	// touched only by the goroutine that ingests that sender.
	windows []replayWindow

	// inFree holds the recycled inbound batches (see inbound) and
	// inFreeMsgs the message slots their slices hold; inMu guards both,
	// because receive goroutines take batches while the event loop
	// returns them.
	inMu       sync.Mutex
	inFree     []*inbound
	inFreeMsgs int

	sent, received                                        atomic.Int64
	lateDrops, authDrops, epochDrops, chaosDrops, decDrop atomic.Int64
	dupDrops, seqStale, clamps, rateDefers                atomic.Int64
	dupFrames, reorderHolds                               atomic.Int64
	corruptFrames, replayFrames, forgeFrames              atomic.Int64
	batchesSent, batchedFrames                            atomic.Int64

	stopOnce sync.Once
}

var _ protocol.Runtime = (*NetNode)(nil)

// transport is the socket behind one node: fire-and-forget frame sends
// plus a close that unblocks the receive loops.
type transport interface {
	// send transmits one encoded frame to peer `to`, best-effort.
	send(to protocol.NodeID, frame []byte)
	// addr returns the resolved listen address.
	addr() string
	close()
}

// Start binds cfg.Listen and launches the node: the receive loop, the
// event-loop goroutine, and Node.Start inside it. The returned NetNode
// must be stopped.
func Start(cfg NodeConfig, node protocol.Node) (*NetNode, error) {
	sock, err := ListenSocket(cfg.Transport, cfg.Listen)
	if err != nil {
		return nil, err
	}
	nn, err := StartWith(cfg, sock, node)
	if err != nil {
		sock.Close()
		return nil, err
	}
	return nn, nil
}

// StartWith is Start over a pre-bound socket (the in-process Cluster
// binds all sockets first to learn ephemeral ports, then starts nodes).
func StartWith(cfg NodeConfig, sock *Socket, node protocol.Node) (*NetNode, error) {
	if cfg.Transport == "" {
		cfg.Transport = TransportUDP
	}
	if cfg.Transport != sock.transport {
		return nil, fmt.Errorf("nettrans: config transport %q but socket is %q", cfg.Transport, sock.transport)
	}
	return startNode(cfg, node, func(nn *NetNode) (transport, error) {
		switch cfg.Transport {
		case TransportUDP:
			return newUDPTransport(nn, sock.udp, cfg.Peers)
		case TransportTCP:
			return newTCPTransport(nn, sock.tcp, cfg.Peers)
		default:
			return nil, fmt.Errorf("nettrans: unknown transport %q", cfg.Transport)
		}
	})
}

// startNode validates cfg, assembles the node around the transport the
// factory builds, and launches its event loop. It is the shared tail of
// StartWith (real sockets) and the virtual cluster (in-memory wire).
func startNode(cfg NodeConfig, node protocol.Node, mkTrans func(*NetNode) (transport, error)) (*NetNode, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.Tick <= 0 {
		cfg.Tick = 100 * time.Microsecond
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real()
	}
	if len(cfg.Peers) != cfg.Params.N {
		return nil, fmt.Errorf("nettrans: %d peer addresses for n=%d", len(cfg.Peers), cfg.Params.N)
	}
	if cfg.ID < 0 || int(cfg.ID) >= cfg.Params.N {
		return nil, fmt.Errorf("nettrans: node id %d outside [0,%d)", cfg.ID, cfg.Params.N)
	}
	if cfg.Epoch.IsZero() {
		return nil, fmt.Errorf("nettrans: missing cluster epoch (all nodes must share one)")
	}
	if cfg.Rec == nil {
		cfg.Rec = protocol.NewRecorder()
	}
	ch, err := compileChaos(cfg.Conditions, cfg.Params.N, cfg.Params.D/2, cfg.Params.D)
	if err != nil {
		return nil, err
	}
	if cfg.PeerIncarnations != nil && len(cfg.PeerIncarnations) != cfg.Params.N {
		return nil, fmt.Errorf("%w: %d peer incarnations for n=%d", ErrEpochSkew, len(cfg.PeerIncarnations), cfg.Params.N)
	}
	gate, _ := cfg.Clock.(clock.Gate)
	base := uint64(cfg.Epoch.UnixNano())
	nn := &NetNode{
		cfg:        cfg,
		clk:        cfg.Clock,
		epochBase:  base,
		epochID:    base + cfg.Incarnation,
		peerEpochs: make([]atomic.Uint64, cfg.Params.N),
		node:       node,
		rec:        cfg.Rec,
		mbox:       eventloop.NewMailboxGated(gate),
		timers:     eventloop.NewTimersOn(cfg.Clock),
		chaos:      ch,
		pending:    make(map[protocol.TimerID]clock.Timer),
		windows:    make([]replayWindow, cfg.Params.N),
	}
	for i := range nn.peerEpochs {
		inc := uint64(0)
		if cfg.PeerIncarnations != nil {
			inc = cfg.PeerIncarnations[i]
		}
		if protocol.NodeID(i) == cfg.ID {
			inc = cfg.Incarnation // a node always accepts its own frames
		}
		nn.peerEpochs[i].Store(base + inc)
	}
	nn.trans, err = mkTrans(nn)
	if err != nil {
		return nil, err
	}
	nn.co = newCoalescer(nn)
	nn.wg.Add(1)
	go func() {
		defer nn.wg.Done()
		nn.mbox.Loop()
	}()
	nn.mbox.Enqueue(func() { node.Start(nn) })
	return nn, nil
}

// Recorder returns the recorder every trace event of this node lands in.
func (nn *NetNode) Recorder() *protocol.Recorder { return nn.rec }

// Addr returns the node's resolved listen address (useful with :0).
func (nn *NetNode) Addr() string { return nn.trans.addr() }

// Stop tears the node down: protocol and chaos timers first (waiting out
// in-flight bodies), then the socket and its receive loops, then the
// event loop. After Stop returns nothing of the node is running.
func (nn *NetNode) Stop() {
	nn.stopOnce.Do(func() {
		nn.timers.Stop()
		nn.trans.close()
		nn.mbox.Close()
	})
	nn.wg.Wait()
}

// Do executes fn inside the node's event loop (for General-side
// initiations), returning once enqueued.
func (nn *NetNode) Do(fn func(protocol.Node)) {
	nn.mbox.Enqueue(func() { fn(nn.node) })
}

// DoWait executes fn inside the event loop and blocks until it has run
// (or the node stopped first).
func (nn *NetNode) DoWait(fn func(protocol.Node)) {
	done := make(chan struct{})
	if !nn.mbox.Enqueue(func() {
		defer close(done)
		fn(nn.node)
	}) {
		return
	}
	select {
	case <-done:
	case <-nn.mbox.Done():
	}
}

// Stats returns a snapshot of the traffic counters.
func (nn *NetNode) Stats() Stats {
	return Stats{
		Sent:          nn.sent.Load(),
		Received:      nn.received.Load(),
		LateDrops:     nn.lateDrops.Load(),
		AuthDrops:     nn.authDrops.Load(),
		EpochDrops:    nn.epochDrops.Load(),
		ChaosDrops:    nn.chaosDrops.Load(),
		DecodeDrops:   nn.decDrop.Load(),
		DupDrops:      nn.dupDrops.Load(),
		SeqStale:      nn.seqStale.Load(),
		Clamps:        nn.clamps.Load(),
		RateDeferrals: nn.rateDefers.Load(),
		DupFrames:     nn.dupFrames.Load(),
		ReorderHolds:  nn.reorderHolds.Load(),
		CorruptFrames: nn.corruptFrames.Load(),
		ReplayFrames:  nn.replayFrames.Load(),
		ForgeFrames:   nn.forgeFrames.Load(),
	}
}

// nowTicks returns ticks since the cluster epoch, read off the injected
// clock (the wall clock, or a Fake under virtual time).
func (nn *NetNode) nowTicks() simtime.Real {
	return simtime.Real(nn.clk.Since(nn.cfg.Epoch) / nn.cfg.Tick)
}

// ---- protocol.Runtime ----

// ID implements protocol.Runtime.
func (nn *NetNode) ID() protocol.NodeID { return nn.cfg.ID }

// Now implements protocol.Runtime: ticks since the shared epoch. Live
// clocks are ideal (drift experiments are simulator territory), so every
// node of a cluster reads the same frame up to OS clock quality.
func (nn *NetNode) Now() simtime.Local { return simtime.Local(nn.nowTicks()) }

// Params implements protocol.Runtime.
func (nn *NetNode) Params() protocol.Params { return nn.cfg.Params }

// Send implements protocol.Runtime: encode, consult the chaos schedule,
// and hand the frame to the socket (immediately, or after a scripted
// delay) — executing whatever byte-level attacks the schedule orders on
// the way: corruption, duplication, replay, forgery. Each attack class
// increments its injection counter here; the receive pipeline counts
// the defenses.
func (nn *NetNode) Send(to protocol.NodeID, m protocol.Message) {
	if to < 0 || int(to) >= nn.cfg.Params.N {
		return
	}
	m.From = nn.cfg.ID // authenticated sender identity
	nn.sent.Add(1)
	now := nn.nowTicks()
	plan := nn.chaos.planSend(nn.cfg.ID, to, now)
	nn.sendPlanned(to, m, now, plan)
}

// sendPlanned executes one resolved chaos plan: encode, inject whatever
// the plan orders, ship. Split from Send so Broadcast can route only
// chaos-touched links through it. Forged and replayed frames join the
// coalescer like real traffic, so attack frames keep their position in
// the per-link frame order. A forged frame takes a number of its own; a
// replay carries the number of the frame it copies, and duplicates the
// number of their original, as datagrams a real network repeats do.
func (nn *NetNode) sendPlanned(to protocol.NodeID, m protocol.Message, now simtime.Real, plan sendPlan) {
	if plan.drop {
		nn.chaosDrops.Add(1)
		return
	}
	if plan.clamped {
		nn.clamps.Add(1)
	}
	if plan.rateDeferred {
		nn.rateDefers.Add(1)
	}
	if plan.reorderHeld {
		nn.reorderHolds.Add(1)
	}
	nn.payloadScratch = wire.AppendMessage(nn.payloadScratch[:0], m)
	if plan.forge >= 0 {
		// The forged twin claims another node's identity; the transport's
		// source check is the defense the campaign expects to fire.
		forged := wire.AppendFrame(nil, wire.Frame{
			Kind:    wire.FrameMessage,
			From:    plan.forge,
			Epoch:   nn.epochID,
			Sent:    int64(now),
			Payload: nn.payloadScratch,
		})
		nn.forgeFrames.Add(1)
		nn.co.add(to, forged, nn.co.next(to))
	}
	num := nn.co.next(to)
	// The replay attacker records the REAL traffic, before corruption.
	nn.chaos.capture(to, int64(now), num, nn.payloadScratch)
	if plan.replay {
		if e := nn.chaos.pickReplay(now, plan.replayLag, plan.replayCross); e != nil {
			epoch := nn.epochID
			if plan.replayCross {
				epoch++ // a frame from an incarnation that never was
			}
			replayed := wire.AppendFrame(nil, wire.Frame{
				Kind:    wire.FrameMessage,
				From:    nn.cfg.ID,
				Epoch:   epoch,
				Sent:    e.sent, // the ORIGINAL send tick: stale on arrival
				Payload: e.payload,
			})
			nn.replayFrames.Add(1)
			nn.co.add(e.to, replayed, e.num)
		}
	}
	nn.frameScratch = wire.AppendFrame(nn.frameScratch[:0], wire.Frame{
		Kind:    wire.FrameMessage,
		From:    nn.cfg.ID,
		Epoch:   nn.epochID,
		Sent:    int64(now),
		Payload: nn.payloadScratch,
	})
	if plan.corrupt {
		// One deterministic byte flipped: header hits fail the codec's
		// magic/version/kind checks, payload hits the decoder's bounds.
		idx := int(plan.corruptSeed % uint64(len(nn.frameScratch)))
		nn.frameScratch[idx] ^= 0xFF
		nn.corruptFrames.Add(1)
	}
	copies := 1 + plan.dups
	nn.dupFrames.Add(int64(plan.dups))
	if plan.delay <= 0 {
		// The coalescer copies the bytes into its per-peer buffer before
		// returning, so the scratch is free for the next Send: zero
		// allocations at steady state.
		for i := 0; i < copies; i++ {
			nn.co.add(to, nn.frameScratch, num)
		}
		return
	}
	// A chaos-delayed frame outlives this call; it ships in a container of
	// its own, numbered now. It goes straight to the socket when its timer
	// fires: the timer runs off the event loop, where the coalescer's
	// unlocked state must not be touched, and the frame's delivery tick is
	// its own, not the tick of whatever burst is in flight then.
	dg := wire.AppendBatch(nil, nn.cfg.ID, nn.epochID, int64(now),
		nn.frameScratch, []int{len(nn.frameScratch)}, num)
	nn.timers.AfterFunc(time.Duration(plan.delay)*nn.cfg.Tick, func() {
		for i := 0; i < copies; i++ {
			nn.trans.send(to, dg)
		}
	})
}

// Broadcast implements protocol.Runtime: n point-to-point sends, the
// node itself included (the model has no broadcast medium).
func (nn *NetNode) Broadcast(m protocol.Message) {
	m.From = nn.cfg.ID // authenticated sender identity
	now := nn.nowTicks()
	encoded := false
	for i := 0; i < nn.cfg.Params.N; i++ {
		to := protocol.NodeID(i)
		nn.sent.Add(1)
		plan := nn.chaos.planSend(nn.cfg.ID, to, now)
		if plan != (sendPlan{forge: -1}) {
			// An attack or environment plan is in force on this link: take
			// the full per-link path (which clobbers the scratch buffers).
			encoded = false
			nn.sendPlanned(to, m, now, plan)
			continue
		}
		// Clean link: the frame bytes do not depend on the recipient, so
		// the n-way fan-out encodes message and frame exactly once.
		if !encoded {
			nn.payloadScratch = wire.AppendMessage(nn.payloadScratch[:0], m)
			nn.frameScratch = wire.AppendFrame(nn.frameScratch[:0], wire.Frame{
				Kind:    wire.FrameMessage,
				From:    nn.cfg.ID,
				Epoch:   nn.epochID,
				Sent:    int64(now),
				Payload: nn.payloadScratch,
			})
			encoded = true
		}
		num := nn.co.next(to)
		// The replay attacker records the REAL traffic, per link.
		nn.chaos.capture(to, int64(now), num, nn.payloadScratch)
		nn.co.add(to, nn.frameScratch, num)
	}
}

// After implements protocol.Runtime.
func (nn *NetNode) After(dl simtime.Duration, tag protocol.TimerTag) protocol.TimerID {
	if dl < 0 {
		dl = 0
	}
	nn.timerMu.Lock()
	nn.nextID++
	id := nn.nextID
	nn.timerMu.Unlock()

	t := nn.timers.AfterFunc(time.Duration(dl)*nn.cfg.Tick, func() {
		nn.timerMu.Lock()
		delete(nn.pending, id)
		nn.timerMu.Unlock()
		nn.mbox.Enqueue(func() { nn.node.OnTimer(tag) })
	})
	if t != nil {
		nn.timerMu.Lock()
		nn.pending[id] = t
		nn.timerMu.Unlock()
	}
	return id
}

// Cancel implements protocol.Runtime. The set-level Cancel also forgets
// the timer in the tracked set, so a daemon cancelling protocol timers
// at the end of every agreement does not accumulate dead entries.
func (nn *NetNode) Cancel(id protocol.TimerID) {
	nn.timerMu.Lock()
	t, ok := nn.pending[id]
	if ok {
		delete(nn.pending, id)
	}
	nn.timerMu.Unlock()
	if ok {
		nn.timers.Cancel(t)
	}
}

// Trace implements protocol.Runtime.
func (nn *NetNode) Trace(ev protocol.TraceEvent) {
	ev.Node = nn.cfg.ID
	ev.RT = nn.nowTicks()
	ev.Tau = nn.Now()
	if ev.TauG != 0 || ev.Kind == protocol.EvDecide || ev.Kind == protocol.EvAbort || ev.Kind == protocol.EvIAccept {
		// Live clocks are ideal, so rt(τG) is the reading itself.
		ev.RTauG = simtime.Real(ev.TauG)
	}
	nn.rec.Add(ev)
	if nn.cfg.Sink != nil {
		nn.cfg.Sink(ev)
	}
}

// BatchStats returns a snapshot of the coalescer counters.
func (nn *NetNode) BatchStats() BatchStats {
	return BatchStats{
		BatchesSent:   nn.batchesSent.Load(),
		BatchedFrames: nn.batchedFrames.Load(),
	}
}

// BumpPeerEpoch advances the epoch id this node accepts from peer id to
// the given incarnation: the orchestrator calls it on every member
// before restarting a rolled peer, so the replacement's frames are
// admitted while every frame of the dead incarnation keeps failing the
// epoch check (epoch_drops). Returns ErrEpochSkew when the bump would
// move the expectation backwards — a stale roll must not resurrect a
// retired incarnation.
func (nn *NetNode) BumpPeerEpoch(peer protocol.NodeID, incarnation uint64) error {
	if peer < 0 || int(peer) >= len(nn.peerEpochs) {
		return fmt.Errorf("%w: peer %d outside [0,%d)", ErrEpochSkew, peer, len(nn.peerEpochs))
	}
	want := nn.epochBase + incarnation
	if cur := nn.peerEpochs[peer].Load(); want < cur {
		return fmt.Errorf("%w: peer %d already at incarnation %d, refusing %d",
			ErrEpochSkew, peer, cur-nn.epochBase, incarnation)
	}
	nn.peerEpochs[peer].Store(want)
	return nil
}

// Incarnation returns this node's incarnation number within the epoch.
func (nn *NetNode) Incarnation() uint64 { return nn.cfg.Incarnation }

// expectedEpoch returns the epoch id currently accepted from the claimed
// sender. An id outside the committee reads as this node's own epoch so
// the frame falls through to the authentication check exactly as before
// incarnations existed (auth_drops, not epoch_drops).
func (nn *NetNode) expectedEpoch(from protocol.NodeID) uint64 {
	if from < 0 || int(from) >= len(nn.peerEpochs) {
		return nn.epochID
	}
	return nn.peerEpochs[from].Load()
}

// ---- receive path (shared by both transports) ----

// inbound is one mailbox event's worth of admitted messages. A receive
// goroutine takes a batch from the node's free list, fills msgs and
// enqueues deliver, a func value built once with the batch, so neither
// the slice nor the event allocates. The event loop owns the batch from
// the enqueue on: deliver passes each message to the node by value and
// only then returns the batch to the free list, so no receive goroutine
// writes msgs while the loop still reads it (TestInboundRecycleRace).
type inbound struct {
	nn      *NetNode
	msgs    []protocol.Message
	deliver func()
}

// maxFreeMsgs bounds the message slots a node's free list of inbound
// batches keeps (64 bytes each, 256 KiB): a burst that queues more than
// this leaves the excess to the collector rather than pinning it for the
// node's lifetime. It holds hundreds of the ~9-frame batches a live
// agreement's containers fill, or eight full 512-frame containers.
const maxFreeMsgs = 4096

func (in *inbound) run() {
	for _, m := range in.msgs {
		in.nn.node.OnMessage(m.From, m)
	}
	in.nn.putInbound(in)
}

// getInbound takes an empty batch from the free list, or makes one, with
// room for n messages.
func (nn *NetNode) getInbound(n int) *inbound {
	var in *inbound
	nn.inMu.Lock()
	if k := len(nn.inFree); k > 0 {
		in = nn.inFree[k-1]
		nn.inFree = nn.inFree[:k-1]
		nn.inFreeMsgs -= cap(in.msgs)
	}
	nn.inMu.Unlock()
	if in == nil {
		in = &inbound{nn: nn}
		in.deliver = in.run
	}
	in.msgs = slices.Grow(in.msgs, n)
	return in
}

// putInbound empties a batch and returns it to the free list.
func (nn *NetNode) putInbound(in *inbound) {
	clear(in.msgs) // drop the value strings
	in.msgs = in.msgs[:0]
	nn.inMu.Lock()
	if nn.inFreeMsgs+cap(in.msgs) <= maxFreeMsgs {
		nn.inFree = append(nn.inFree, in)
		nn.inFreeMsgs += cap(in.msgs)
	}
	nn.inMu.Unlock()
}

// enqueue hands a filled batch to the event loop in one mailbox event
// and counts its messages received; a closed mailbox recycles it.
func (nn *NetNode) enqueue(in *inbound) {
	n := int64(len(in.msgs)) // read first: once enqueued, in belongs to the loop
	if nn.mbox.Enqueue(in.deliver) {
		nn.received.Add(n)
		return
	}
	nn.putInbound(in)
}

// openContainer runs the checks a container's envelope answers for all
// of its inner frames: the sender's incarnation epoch, and authOK, the
// transport's verdict on the claimed sender (for UDP the source address,
// for TCP the session identity, for the virtual wire the endpoint). It
// returns the sender's anti-replay window, emptied when the sender
// changed incarnation, or nil when the container is dropped.
func (nn *NetNode) openContainer(from protocol.NodeID, epoch uint64, authOK bool) *replayWindow {
	if epoch != nn.expectedEpoch(from) {
		nn.epochDrops.Add(1)
		return nil
	}
	if !authOK || from < 0 || int(from) >= len(nn.windows) {
		nn.authDrops.Add(1)
		return nil
	}
	w := &nn.windows[from]
	if w.epoch != epoch {
		*w = replayWindow{epoch: epoch}
	}
	return w
}

// admitFrame runs the acceptance pipeline on one inner frame of an open
// container from sender: decode, epoch check, the claimed sender (it
// must be the container's), the d deadline on UDP, the anti-replay
// window on the frame's link number num, receiver-side churn, payload
// decode. It returns the decoded message and true when the frame should
// be delivered. Every drop class counts here, per frame — a container is
// packaging, so its inner frames are admitted one by one exactly as if
// each had its own datagram. Only message frames are data: a hello or a
// batch nested inside a container is discarded as a decode drop. vals is
// the calling receive goroutine's own value cache (nil decodes without
// one); the decoded value is a fresh string, never a view of the
// frame's bytes.
func (nn *NetNode) admitFrame(raw []byte, sender protocol.NodeID, win *replayWindow, num uint64, now simtime.Real, vals *wire.Values) (protocol.Message, bool) {
	f, consumed, err := wire.DecodeFrame(raw)
	if err != nil || consumed != len(raw) {
		nn.decDrop.Add(1)
		return protocol.Message{}, false
	}
	if f.Epoch != nn.expectedEpoch(f.From) {
		nn.epochDrops.Add(1)
		return protocol.Message{}, false
	}
	if f.Kind != wire.FrameMessage {
		nn.decDrop.Add(1)
		return protocol.Message{}, false
	}
	if f.From != sender {
		nn.authDrops.Add(1)
		return protocol.Message{}, false
	}
	if nn.cfg.Transport == TransportUDP && int64(now)-f.Sent > int64(nn.cfg.Params.D) {
		// Bounded-delay enforcement: the model delivers within d or not at
		// all, so a late frame is transport loss, not a late delivery.
		nn.lateDrops.Add(1)
		return protocol.Message{}, false
	}
	switch win.admit(num, now, nn.cfg.Params.D) {
	case replayDup:
		// At-most-once per number: this link number was already admitted,
		// so this is datagram duplication or a fresh replay.
		nn.dupDrops.Add(1)
		return protocol.Message{}, false
	case replayStale:
		nn.seqStale.Add(1)
		return protocol.Message{}, false
	}
	if nn.chaos.onRecv(nn.cfg.ID, now) {
		nn.chaosDrops.Add(1)
		return protocol.Message{}, false
	}
	m, _, err := vals.DecodeMessage(f.Payload)
	if err != nil {
		nn.decDrop.Add(1)
		return protocol.Message{}, false
	}
	m.From = f.From // the envelope, not the body, is authenticated
	return m, true
}

// handleBatch opens a container datagram (every data datagram is one)
// and admits every inner frame individually: per-frame decode (a corrupt
// inner frame costs one decode drop and spares its batch-mates), per-
// frame sender check, deadline, anti-replay window and churn. All
// admitted messages are delivered in order through ONE mailbox enqueue —
// the amortization that lets the event loop keep up with a coalesced
// wire. A frame of any other kind, or a broken container framing (bad
// number, count or length prefix), costs one decode drop for the
// unreadable remainder; frames yielded before the break stand. authOK is
// the transport's verdict on the container's claimed sender. It is
// called from the goroutine that owns that sender's window.
func (nn *NetNode) handleBatch(f wire.Frame, authOK bool, vals *wire.Values) {
	if f.Kind != wire.FrameBatch {
		nn.decDrop.Add(1)
		return
	}
	win := nn.openContainer(f.From, f.Epoch, authOK)
	if win == nil {
		return
	}
	r, err := wire.ReadBatch(f.Payload)
	if err != nil {
		nn.decDrop.Add(1)
		return
	}
	var in *inbound // taken at the first admitted frame
	// One clock read admits the whole container: every inner frame shares
	// the batch's arrival instant.
	now := nn.nowTicks()
	for raw, ok := r.Next(); ok; raw, ok = r.Next() {
		if m, admit := nn.admitFrame(raw, f.From, win, r.Seq(), now, vals); admit {
			if in == nil {
				in = nn.getInbound(r.Remaining() + 1) // sized to the frames left
			}
			in.msgs = append(in.msgs, m)
		}
	}
	if r.Err() != nil {
		nn.decDrop.Add(1)
	}
	if in != nil {
		nn.enqueue(in)
	}
}

// handleInner admits one inner frame of a container the virtual wire
// unpacked at send time (virtual.go): from and epoch are the container's
// envelope, num the frame's link number. It is handleBatch for a
// container of one, delivered through its own mailbox event.
func (nn *NetNode) handleInner(from protocol.NodeID, epoch uint64, authOK bool, num uint64, raw []byte, vals *wire.Values) {
	win := nn.openContainer(from, epoch, authOK)
	if win == nil {
		return
	}
	m, ok := nn.admitFrame(raw, from, win, num, nn.nowTicks(), vals)
	if !ok {
		return
	}
	in := nn.getInbound(1)
	in.msgs = append(in.msgs, m)
	nn.enqueue(in)
}
