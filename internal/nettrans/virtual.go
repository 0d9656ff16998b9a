package nettrans

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"ssbyz/internal/clock"
	"ssbyz/internal/core"
	"ssbyz/internal/eventloop"
	"ssbyz/internal/protocol"
	"ssbyz/internal/simtime"
	"ssbyz/internal/wire"
)

// This file is the virtual-time path of the Cluster: when ClusterConfig
// carries a *clock.Fake, the kernel sockets are replaced by an
// in-memory deterministic wire and every timer — protocol, chaos,
// delivery — schedules on the fake clock. Everything above the socket
// still runs for real: frames are encoded by the wire codec, carry the
// epoch incarnation, send tick and link number, and pass back through
// the full acceptance pipeline (epoch check, authentication, the UDP
// deadline drop, the anti-replay window, receiver churn, payload
// decode). What virtual time buys is
// reproducibility: a seeded run's trace is byte-identical across
// executions (DESIGN.md §9).
//
// The wire's delivery schedule is built to be independent of how the
// sender packs frames into datagrams. Which frames share a batch
// container depends on when each node's coalescer flush runs relative to
// other goroutines, so the packing varies from run to run; what nodes
// observe must not. TestVirtualWireDigests pins the trace and the Stats
// vector with committed digests, and three design points carry it:
//
//   - Per-link delay draws. Every frame's delay is a pure function of
//     (seed, from, to, per-link sequence number), drawn when the frame
//     reaches the wire. Batching defers when a frame reaches the wire
//     (flush time instead of Send time) and so reorders draws *between*
//     links, but each link's own sequence — and therefore each frame's
//     delay — is unchanged. A batch container is unpacked here at send
//     time, each inner frame drawing its own delay and reaching the
//     receiver with its container's sender, epoch and its own link
//     number, exactly as if it had shipped alone.
//   - Per-tick delivery buckets behind one canonical pump timer. Frames
//     land in a bucket keyed by their delivery tick; a single self-
//     rearming pump timer — registered before any node exists, rearmed
//     first thing in its own body — fires each tick's bucket sorted by
//     (to, from, seq). No timer registration order ever depends on when
//     traffic happened to be scheduled, so the fake clock's global
//     timer sequence is identical however frames were packed.
//   - The half-tick offset with delay ≥ 1. The pump fires at tick
//     boundary + tick/2, and every frame is delivered at least one full
//     tick after its scheduling instant, so a bucket is always complete
//     before its pump fire and wire deliveries never tie with protocol
//     or chaos timers registered at the same boundary.

// CapturedFrame is one encoded wire datagram recorded by the virtual
// wire at send time — the record half of record/replay: the captured
// bytes can be decoded (batch containers via wire.ReadBatch) and re-fed
// through the property battery.
type CapturedFrame struct {
	From, To protocol.NodeID
	// Bytes is the full encoded datagram, a FrameBatch container.
	Bytes []byte
}

// wireDelivery is one frame waiting in a delivery-tick bucket: an inner
// frame with its container's claimed sender and epoch and its link
// number num, or, when broken, the unreadable rest of a datagram. seq is
// the frame's place in the link's wire order.
type wireDelivery struct {
	from, to protocol.NodeID
	seq      int64
	sender   protocol.NodeID
	epoch    uint64
	num      uint64
	broken   bool
	bytes    []byte
}

// capturedRec is one recorded datagram plus its canonical position:
// the send tick and the directed link's sequence number at send time.
// Node event loops send concurrently within one fake-clock cascade, so
// the append order of the record is scheduler-dependent; the key is
// not, and Frames sorts by it.
type capturedRec struct {
	at  simtime.Real
	seq int64
	f   CapturedFrame
}

// memWire is the deterministic in-memory datagram wire: sends draw a
// per-link seeded delivery delay in [DelayMin, DelayMax] ticks and wait
// in per-tick buckets for the pump.
type memWire struct {
	tick   time.Duration
	timers *eventloop.Timers
	clk    clock.Clock
	epoch  time.Time
	n      int
	seed   uint64

	mu         sync.Mutex
	dmin, dmax simtime.Duration
	nodes      []*NetNode
	frames     []capturedRec
	// linkSeq[from*n+to] numbers the frames of one directed link in wire
	// order; the delay draw hashes it, so a link's delays are independent
	// of every other link's traffic (and of batching).
	linkSeq []int64
	// due buckets frames by delivery tick until the pump collects them;
	// spare holds emptied buckets for reuse, so a steady flood fills
	// buckets without growing new ones.
	due   map[simtime.Real][]wireDelivery
	spare [][]wireDelivery
	// vals is the pump's value cache; only the pump goroutine uses it.
	vals wire.Values
}

// memTransport is one node's endpoint on the wire; it satisfies the
// same transport interface as the UDP/TCP sockets.
type memTransport struct {
	w  *memWire
	id protocol.NodeID
}

func (t *memTransport) addr() string { return fmt.Sprintf("virtual:%d", t.id) }
func (t *memTransport) close()       {}

func (t *memTransport) send(to protocol.NodeID, frame []byte) {
	w := t.w
	// The caller's scratch buffer is reused on the next send; the wire
	// needs its own copy, exactly as a socket write would take one.
	cp := append([]byte(nil), frame...)
	at := simtime.Real(w.clk.Since(w.epoch) / w.tick)
	w.mu.Lock()
	defer w.mu.Unlock()
	// The link's current sequence number positions this datagram among
	// same-tick sends (a container covers [seq, seq+count) — its first
	// inner frame's draw).
	w.frames = append(w.frames, capturedRec{
		at:  at,
		seq: w.linkSeq[int(t.id)*w.n+int(to)],
		f:   CapturedFrame{From: t.id, To: to, Bytes: cp},
	})
	w.carryLocked(t.id, to, cp)
}

// carryLocked puts one datagram on the wire from endpoint from to node
// to; w.mu must be held.
func (w *memWire) carryLocked(from, to protocol.NodeID, cp []byte) {
	if f, n, err := wire.DecodeFrame(cp); err == nil && n == len(cp) && f.Kind == wire.FrameBatch {
		// Unpack at send time: every inner frame draws its own per-link
		// delay and travels alone, exactly as if it had shipped in a
		// container of one. Inner frame *content* is not inspected here — a
		// chaos-corrupted inner frame must still draw its delay and fail at
		// the receiver, as it would have unbatched.
		if r, rerr := wire.ReadBatch(f.Payload); rerr == nil {
			for inner, ok := r.Next(); ok; inner, ok = r.Next() {
				w.scheduleLocked(wireDelivery{from: from, to: to,
					sender: f.From, epoch: f.Epoch, num: r.Seq(), bytes: inner})
			}
			if r.Err() == nil {
				return
			}
		}
	}
	// An unreadable datagram, or the unreadable rest of one, never leaves
	// the coalescer in practice; the receiver counts it as one decode
	// drop, as handleBatch does on a socket.
	w.scheduleLocked(wireDelivery{from: from, to: to, broken: true})
}

// scheduleLocked buckets one frame for delivery; w.mu must be held. The
// delay is a pure function of the link and the frame's position on it.
func (w *memWire) scheduleLocked(d wireDelivery) {
	link := int(d.from)*w.n + int(d.to)
	d.seq = w.linkSeq[link]
	w.linkSeq[link]++
	if w.nodes[d.to] == nil {
		return // crash-faulty slot: the datagram vanishes, as on a parked socket
	}
	delay := w.dmin
	if w.dmax > w.dmin {
		delay += simtime.Duration(mix64(w.seed, uint64(d.from), uint64(d.to), uint64(d.seq)) % uint64(w.dmax-w.dmin+1))
	}
	if delay < 1 {
		delay = 1 // a bucket must close strictly before its pump fire
	}
	at := simtime.Real(w.clk.Since(w.epoch)/w.tick) + simtime.Real(delay)
	bucket, ok := w.due[at]
	if !ok && len(w.spare) > 0 {
		bucket = w.spare[len(w.spare)-1]
		w.spare = w.spare[:len(w.spare)-1]
	}
	w.due[at] = append(bucket, d)
}

// pump is the wire's single delivery timer body: rearm for the next
// tick first (keeping the rearm's position in the fake clock's timer
// sequence canonical), then deliver this tick's bucket in (to, from,
// seq) order — an order independent of how the bucket was filled.
func (w *memWire) pump() {
	w.timers.AfterFunc(w.tick, w.pump)
	at := simtime.Real(w.clk.Since(w.epoch) / w.tick)
	w.mu.Lock()
	list := w.due[at]
	delete(w.due, at)
	w.mu.Unlock()
	if len(list) == 0 {
		return
	}
	// (to, from, seq) is unique per frame, so the unstable sort is exact.
	slices.SortFunc(list, func(a, b wireDelivery) int {
		if a.to != b.to {
			return cmp.Compare(a.to, b.to)
		}
		if a.from != b.from {
			return cmp.Compare(a.from, b.from)
		}
		return cmp.Compare(a.seq, b.seq)
	})
	for _, d := range list {
		w.mu.Lock()
		tgt := w.nodes[d.to]
		w.mu.Unlock()
		if tgt == nil {
			continue
		}
		if d.broken {
			tgt.decDrop.Add(1)
			continue
		}
		// The wire is point-to-point in process: the sender identity is
		// its endpoint, so authentication holds by construction (the
		// claimed-sender check still runs inside the acceptance pipeline).
		tgt.handleInner(d.sender, d.epoch, d.sender == d.from, d.num, d.bytes, &w.vals)
	}
	clear(list) // release the frame bytes before the bucket is reused
	w.mu.Lock()
	w.spare = append(w.spare, list[:0])
	w.mu.Unlock()
}

// Frames returns a copy of every wire datagram the virtual wire carried
// so far, in canonical (send tick, from, to, link sequence) order
// (empty on the wall-clock path). The canonical order — not raw append
// order — is what makes the record byte-identical run to run: within
// one fake-clock cascade several node event loops send concurrently,
// so append order is scheduler noise, while the key is a pure function
// of the seeded schedule. The record/replay golden tests pin exactly
// that.
func (c *Cluster) Frames() []CapturedFrame {
	if c.wire == nil {
		return nil
	}
	c.wire.mu.Lock()
	recs := make([]capturedRec, len(c.wire.frames))
	copy(recs, c.wire.frames)
	c.wire.mu.Unlock()
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.f.From != b.f.From {
			return a.f.From < b.f.From
		}
		if a.f.To != b.f.To {
			return a.f.To < b.f.To
		}
		return a.seq < b.seq
	})
	out := make([]CapturedFrame, len(recs))
	for i, r := range recs {
		out[i] = r.f
	}
	return out
}

// newVirtualCluster is NewCluster on the virtual-time path.
func newVirtualCluster(cfg ClusterConfig, fake *clock.Fake, absent map[protocol.NodeID]bool) (*Cluster, error) {
	n := cfg.Params.N
	if cfg.DelayMax == 0 {
		cfg.DelayMax = cfg.Params.D / 2
	}
	if cfg.DelayMin == 0 {
		cfg.DelayMin = cfg.Params.D / 4
	}
	if cfg.DelayMin < 0 || cfg.DelayMin > cfg.DelayMax || cfg.DelayMax > cfg.Params.D/2 {
		// Max D/2: the chaos layer may add up to D/2 of scripted jitter
		// before the send, and the two together must stay within the
		// model's d so the deadline drop never fires spuriously.
		return nil, fmt.Errorf("nettrans: virtual delay range must satisfy 0 ≤ min ≤ max ≤ D/2")
	}
	peers := make([]string, n)
	for i := range peers {
		peers[i] = fmt.Sprintf("virtual:%d", i)
	}
	c := &Cluster{
		cfg:          cfg,
		clk:          fake,
		fake:         fake,
		epoch:        fake.Now(),
		rec:          protocol.NewRecorder(),
		peers:        peers,
		nodes:        make([]*NetNode, n),
		parked:       make(map[protocol.NodeID]*Socket),
		incarnations: make([]uint64, n),
	}
	c.wire = &memWire{
		tick:    cfg.Tick,
		timers:  eventloop.NewTimersOn(fake),
		clk:     fake,
		epoch:   c.epoch,
		n:       n,
		seed:    uint64(cfg.Seed),
		dmin:    cfg.DelayMin,
		dmax:    cfg.DelayMax,
		nodes:   make([]*NetNode, n),
		linkSeq: make([]int64, n*n),
		due:     make(map[simtime.Real][]wireDelivery),
	}
	// The pump is the first timer the fake clock ever sees: its self-
	// rearming chain owns the half-tick delivery offsets from before any
	// node boots, keeping the clock's timer sequence — and with it every
	// tie-break — independent of traffic and of wire mode.
	c.wire.timers.AfterFunc(cfg.Tick/2, c.wire.pump)
	for i := 0; i < n; i++ {
		id := protocol.NodeID(i)
		machine, isFaulty := cfg.Faulty[id]
		if (isFaulty && machine == nil) || absent[id] {
			continue // crash-faulty or not-yet-booted: the wire drops frames addressed to it
		}
		if !isFaulty {
			if cfg.NewNode != nil {
				machine = cfg.NewNode()
			} else {
				machine = core.NewNode()
			}
			c.correct = append(c.correct, id)
		}
		nn, err := startNode(c.nodeConfig(id), machine, func(nn *NetNode) (transport, error) {
			return &memTransport{w: c.wire, id: id}, nil
		})
		if err != nil {
			c.Stop()
			return nil, err
		}
		c.nodes[i] = nn
		c.wire.nodes[i] = nn
		// Serialize the boot: node i's Start (and the timers it
		// registers) fully drains before node i+1 starts, so timer
		// registration order — and with it the whole run — is
		// deterministic.
		fake.WaitIdle()
	}
	return c, nil
}
