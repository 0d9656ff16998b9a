// Package simnet is the deterministic discrete-event transport. It
// realizes exactly the axioms of the paper's communication model: messages
// between correct nodes are delivered and processed within d (the actual
// per-message delay is drawn from [DelayMin, DelayMax] ≤ d), the sender's
// identity is authenticated, there is no broadcast medium, and each node's
// local clock drifts within (1±ρ) of real time.
//
// Because virtual real time and every node's local reading are both
// first-class, the property checkers can verify the paper's bounds (which
// mix rt(·) and τ(·)) exactly.
//
// A scripted network-condition schedule (conditions.go) can disturb the
// transport deterministically: jitter windows stretch delays within the
// legal [DelayMin, DelayMax] (the model still holds), while timed
// partitions and node churn deliberately suspend the delivery axiom for
// chosen links and windows — the raw material of adversarial scenarios.
package simnet

import (
	"fmt"
	"math/rand"

	"ssbyz/internal/protocol"
	"ssbyz/internal/simtime"
)

// DelayFn picks the delivery delay for one message. It must return a value
// in [min, max]; the world clamps anything outside.
type DelayFn func(from, to protocol.NodeID, m protocol.Message, rng *rand.Rand) simtime.Duration

// Config describes one simulated world.
type Config struct {
	Params protocol.Params
	// Seed drives all randomness (delays, adversaries). Same seed, same run.
	Seed int64
	// DelayMin/DelayMax bound actual message delays. DelayMax must be ≤
	// Params.D − a processing margin; by convention the whole of d is
	// available to the transport (processing is instantaneous in the
	// simulator, matching d ≡ (δ+π)(1+ρ) with π folded in).
	DelayMin, DelayMax simtime.Duration
	// Delay optionally overrides the default uniform-random delay policy.
	Delay DelayFn
	// Clocks optionally sets per-node clocks; nil entries (or a nil slice)
	// default to ideal clocks with zero offset. Use simtime.DriftClock to
	// model drift and offset.
	Clocks []simtime.Clock
	// Conditions is the scripted network-condition schedule — timed
	// partitions, jitter windows, node churn — applied deterministically
	// at delivery time (see conditions.go). An empty schedule leaves the
	// delivery path byte-identical to a condition-free world.
	Conditions []Condition
}

// World is a deterministic simulation of n nodes exchanging messages.
type World struct {
	cfg   Config
	sch   *simtime.Scheduler
	rng   *rand.Rand
	rec   *protocol.Recorder
	nodes []protocol.Node
	rts   []*nodeRT

	// counts tracks sent messages per kind for the complexity experiment
	// (indexed by MsgKind: a map hash per sent message is hot-path cost).
	counts [protocol.BaselineRound + 1]int64
	total  int64

	// dropFn, when set, silently discards matching messages. It is the
	// transient injector's hook for modelling the tail of an incoherent
	// period; scripted targeted partitions (and the other timed network
	// disturbances) are the condition schedule's job — see conditions.go.
	dropFn func(from, to protocol.NodeID, m protocol.Message) bool

	// conds is the compiled condition schedule (empty when none);
	// condDrops counts messages the schedule ate.
	conds     []compiledCond
	condDrops int64

	// recPool recycles send records, so that scheduling a send performs
	// zero heap allocations once the pool is warm (DESIGN.md §5); records
	// counts every record ever made, all of which are back in the pool
	// once the scheduler drains.
	recPool []*sendRecord
	records int

	// batchPool recycles fan-out batches, and fanScratch/fanOffs are the
	// per-Broadcast bucketing workspace: fanScratch is indexed by the
	// delay offset within [DelayMin, DelayMax] (two recipients share a
	// batch exactly when they share a delay, hence an arrival tick), and
	// fanOffs lists the offsets in use, in first-use order. Both are
	// reused across broadcasts, so the batched fan-out allocates nothing
	// in steady state (DESIGN.md §5).
	batchPool  []*deliveryBatch
	fanScratch []*deliveryBatch
	fanOffs    []int
	// useBatch selects the batched fan-out: per-tick batches only pay
	// when recipients actually share arrival ticks, i.e. when the delay
	// span is within a small factor of n (they win n× on deterministic
	// delays and lose a bucketing pass on wide scatters, where one
	// argument event per recipient is already optimal). Either path
	// yields byte-identical runs, so this is purely a cost choice.
	useBatch bool

	started bool
}

// sendRecord is one send's in-flight state: the message, stamped with
// its authenticated sender, and the number of its scheduled deliveries
// still pending. Each recipient is a 32-byte simtime.PostArg event
// carrying the recipient's ID against the shared record (a batch of
// same-tick recipients counts as one delivery), so a broadcast stores its
// message once rather than once per recipient, and scheduling it
// allocates nothing once the pool is warm.
type sendRecord struct {
	w       *World
	m       protocol.Message
	pending int
}

// RunEventArg delivers the message to node to.
func (r *sendRecord) RunEventArg(to uint64) {
	w, m := r.w, r.m
	r.done()
	if n := w.nodes[to]; n != nil {
		n.OnMessage(m.From, m)
	}
}

// done retires one pending delivery, returning the record to the pool
// with the last one. Callers copy the message out first: the recipient's
// handler may send again and reuse the record at once. The fields are
// left stale until reuse — the only thing they retain is a short value
// string.
func (r *sendRecord) done() {
	r.pending--
	if r.pending == 0 {
		r.w.recPool = append(r.w.recPool, r)
	}
}

// deliveryBatch is one broadcast's recipients that share an arrival tick:
// a single pooled scheduler event standing for len(tos) deliveries of the
// send's record. The recipients are dispatched in the order they were
// enqueued (ascending NodeID within one Broadcast call), which is exactly
// the (time, schedule) order the per-recipient fan-out would have
// produced, so traces are byte-identical between the two paths.
type deliveryBatch struct {
	r   *sendRecord
	tos []protocol.NodeID
}

// RunEvent dispatches the batch. Processed-event accounting stays per
// delivery (the batch credits len−1 extras on top of its own Step), so the
// deterministic cost metric is independent of the fan-out mode. The batch
// returns to the pool only after the last dispatch: a nested Broadcast
// issued by a recipient must not reuse the recipient slice mid-iteration.
func (b *deliveryBatch) RunEvent() {
	w, m, tos := b.r.w, b.r.m, b.tos
	b.r.done()
	w.sch.AddProcessed(uint64(len(tos) - 1))
	for _, to := range tos {
		if n := w.nodes[to]; n != nil {
			n.OnMessage(m.From, m)
		}
	}
	b.r, b.tos = nil, tos[:0]
	w.batchPool = append(w.batchPool, b)
}

// New builds a world. Nodes must be attached with SetNode before Start.
func New(cfg Config) (*World, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.DelayMax == 0 {
		cfg.DelayMax = cfg.Params.D
	}
	if cfg.DelayMin < 0 || cfg.DelayMin > cfg.DelayMax {
		return nil, fmt.Errorf("simnet: bad delay range [%d,%d]", cfg.DelayMin, cfg.DelayMax)
	}
	if cfg.DelayMax > cfg.Params.D {
		return nil, fmt.Errorf("simnet: DelayMax %d exceeds d=%d", cfg.DelayMax, cfg.Params.D)
	}
	w := &World{
		cfg:   cfg,
		sch:   simtime.NewScheduler(),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		rec:   protocol.NewSequentialRecorder(),
		nodes: make([]protocol.Node, cfg.Params.N),
		rts:   make([]*nodeRT, cfg.Params.N),
		// One bucket per possible delay value: recipients of one broadcast
		// share an arrival tick exactly when they share a delay.
		fanScratch: make([]*deliveryBatch, int(cfg.DelayMax-cfg.DelayMin)+1),
		useBatch:   int64(cfg.DelayMax-cfg.DelayMin)+1 <= 4*int64(cfg.Params.N),
	}
	if len(cfg.Conditions) > 0 {
		conds, err := compileConditions(cfg.Conditions, cfg.Params.N)
		if err != nil {
			return nil, err
		}
		w.conds = conds
	}
	for i := 0; i < cfg.Params.N; i++ {
		var clk simtime.Clock
		if i < len(cfg.Clocks) {
			clk = cfg.Clocks[i]
		}
		if clk.Wrap == 0 {
			clk.Wrap = cfg.Params.Wrap
		}
		w.rts[i] = &nodeRT{w: w, id: protocol.NodeID(i), clock: clk}
	}
	return w, nil
}

// SetNode attaches the protocol state machine for node id.
func (w *World) SetNode(id protocol.NodeID, n protocol.Node) {
	w.nodes[id] = n
}

// Node returns the state machine attached to id.
func (w *World) Node(id protocol.NodeID) protocol.Node { return w.nodes[id] }

// Runtime returns node id's runtime (exposed for adversaries and the
// transient injector).
func (w *World) Runtime(id protocol.NodeID) protocol.Runtime { return w.rts[id] }

// Recorder returns the shared trace recorder.
func (w *World) Recorder() *protocol.Recorder { return w.rec }

// Scheduler exposes the event queue for scenario scripting (e.g. injecting
// an initiation at a chosen virtual time).
func (w *World) Scheduler() *simtime.Scheduler { return w.sch }

// Rand returns the world's deterministic RNG.
func (w *World) Rand() *rand.Rand { return w.rng }

// Params returns the protocol parameters.
func (w *World) Params() protocol.Params { return w.cfg.Params }

// Now returns current virtual real time.
func (w *World) Now() simtime.Real { return w.sch.Now() }

// LocalNow returns node id's current local reading.
func (w *World) LocalNow(id protocol.NodeID) simtime.Local {
	return w.rts[id].Now()
}

// SetDropFn installs a message filter; messages for which fn returns true
// are discarded in flight. Pass nil to clear.
func (w *World) SetDropFn(fn func(from, to protocol.NodeID, m protocol.Message) bool) {
	w.dropFn = fn
}

// MessageCount returns the total messages sent and a per-kind breakdown.
func (w *World) MessageCount() (int64, map[protocol.MsgKind]int64) {
	out := make(map[protocol.MsgKind]int64)
	for k, v := range w.counts {
		if v != 0 {
			out[protocol.MsgKind(k)] = v
		}
	}
	return w.total, out
}

// Start calls Start on every attached node. Nodes left nil are silent
// (crash-faulty from the beginning).
func (w *World) Start() {
	if w.started {
		return
	}
	w.started = true
	for i, n := range w.nodes {
		if n != nil {
			n.Start(w.rts[i])
		}
	}
}

// RunUntil executes events until virtual real time reaches deadline.
func (w *World) RunUntil(deadline simtime.Real) {
	w.sch.RunUntil(deadline)
}

// delayFor picks the delay for one message.
func (w *World) delayFor(from, to protocol.NodeID, m protocol.Message) simtime.Duration {
	var d simtime.Duration
	if w.cfg.Delay != nil {
		d = w.cfg.Delay(from, to, m, w.rng)
	} else if w.cfg.DelayMax > w.cfg.DelayMin {
		d = w.cfg.DelayMin + simtime.Duration(w.rng.Int63n(int64(w.cfg.DelayMax-w.cfg.DelayMin)+1))
	} else {
		d = w.cfg.DelayMin
	}
	return w.clampDelay(d)
}

func (w *World) clampDelay(d simtime.Duration) simtime.Duration {
	if d < w.cfg.DelayMin {
		d = w.cfg.DelayMin
	}
	if d > w.cfg.DelayMax {
		d = w.cfg.DelayMax
	}
	return d
}

// record pops (or makes) a send record for m.
func (w *World) record(m protocol.Message) *sendRecord {
	var r *sendRecord
	if n := len(w.recPool); n > 0 {
		r = w.recPool[n-1]
		w.recPool = w.recPool[:n-1]
	} else {
		r = &sendRecord{w: w}
		w.records++
	}
	r.m = m
	return r
}

// pooledBatch pops (or makes) an empty fan-out batch.
func (w *World) pooledBatch() *deliveryBatch {
	if n := len(w.batchPool); n > 0 {
		b := w.batchPool[n-1]
		w.batchPool = w.batchPool[:n-1]
		return b
	}
	return new(deliveryBatch)
}

// drawDelay asks fanOut to draw each recipient's delay from the policy.
const drawDelay simtime.Duration = -1

// fanOut sends m from from to every node in [lo, hi): the one recipient
// loop behind Send, SendAt and Broadcast. Per recipient it takes the
// delay (drawn unless fixed), applies the condition schedule, counts the
// send, and runs the drop filter, in that order — the RNG stream and
// accounting every run is pinned to. A condition drop comes after the
// count: a partitioned message was sent and counted; the network ate it.
// The filter sees the message as sent, From excluded; deliveries carry it
// stamped with the authenticated sender.
//
// Survivors share one record. Each becomes one PostArg event, or, on the
// batched path, joins the batch of its arrival tick: one pooled event per
// distinct tick, up to n× less scheduler traffic per broadcast (all of it
// when delays are deterministic) with the exact per-recipient delivery
// order, so traces, message counts, and processed-event counts are
// byte-identical between the two.
func (w *World) fanOut(from protocol.NodeID, lo, hi int, m protocol.Message, delay simtime.Duration) {
	batch := hi-lo > 1 && w.useBatch
	sm := m
	sm.From = from // authenticated identity: stamped by the transport
	r := w.record(sm)
	now := w.sch.Now()
	for to := lo; to < hi; to++ {
		toID := protocol.NodeID(to)
		d := delay
		if d == drawDelay {
			d = w.delayFor(from, toID, m)
		}
		drop := false
		if len(w.conds) != 0 {
			d, drop = w.applyConditions(from, toID, d)
		}
		w.total++
		if int(m.Kind) < len(w.counts) {
			w.counts[m.Kind]++
		}
		if w.dropFn != nil && w.dropFn(from, toID, m) {
			continue
		}
		if drop {
			w.condDrops++
			continue
		}
		if !batch {
			r.pending++
			w.sch.PostArg(now.Add(d), r, uint64(toID))
			continue
		}
		off := int(d - w.cfg.DelayMin)
		b := w.fanScratch[off]
		if b == nil {
			b = w.pooledBatch()
			w.fanScratch[off] = b
			w.fanOffs = append(w.fanOffs, off)
		}
		b.tos = append(b.tos, toID)
	}
	// Flush in first-use order: batches sit at distinct ticks, so the
	// posting order among them is immaterial to execution order — it only
	// has to be deterministic.
	for _, off := range w.fanOffs {
		b := w.fanScratch[off]
		w.fanScratch[off] = nil
		at := now.Add(w.cfg.DelayMin + simtime.Duration(off))
		r.pending++
		if len(b.tos) == 1 {
			// A lone recipient degrades to a plain argument event, and the
			// batch returns to the pool immediately.
			w.sch.PostArg(at, r, uint64(b.tos[0]))
			b.tos = b.tos[:0]
			w.batchPool = append(w.batchPool, b)
			continue
		}
		b.r = r
		w.sch.PostHandler(at, b)
	}
	w.fanOffs = w.fanOffs[:0]
	if r.pending == 0 {
		w.recPool = append(w.recPool, r) // every recipient dropped
	}
}

// InjectDelivery schedules a raw message delivery outside the normal send
// path. The transient injector uses it to model residue of the incoherent
// period: spurious messages that arrive right after coherence begins. The
// claimed sender From must be set by the caller. The delivery is one
// argument event against a pooled send record, so injecting allocates
// nothing once the pool is warm.
func (w *World) InjectDelivery(to protocol.NodeID, m protocol.Message, at simtime.Real) {
	r := w.record(m)
	r.pending = 1
	w.sch.PostArg(at, r, uint64(to))
}
