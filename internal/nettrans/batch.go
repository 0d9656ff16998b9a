package nettrans

import (
	"ssbyz/internal/protocol"
	"ssbyz/internal/wire"
)

// Frame coalescing: the send half of the wire-rate hot path
// (DESIGN.md §11).
//
// A protocol event handler typically emits a burst of sends — a
// broadcast is n point-to-point frames, a round change can fan out
// several broadcasts back-to-back. One datagram per frame would pay one
// syscall, one receive-loop wakeup and one mailbox enqueue at the
// receiver per frame. The coalescer instead parks each immediate-path
// frame in a per-peer pending buffer and flushes all peers once the
// burst is over: every frame the current run of event-handler work
// produced for a peer leaves in ONE FrameBatch datagram.
//
// The coalescer also numbers each directed link's frames: the container
// carries the numbers (internal/wire/batch.go), and the receiver's
// anti-replay window (replay.go) judges every inner frame by its number.
// Every data datagram is a container, a flush of one frame included, so
// the receiver has one path and every frame a number.
//
// "Once the burst is over" is expressed with the mailbox itself: the
// first frame parked after a flush enqueues the flush as an event, so
// it runs after every handler event that was already queued — by which
// time those handlers have parked all their frames. No timer, no added
// latency beyond the work the event loop was going to do anyway.
//
// All coalescer state is event-loop-only, like the Send scratch
// buffers: protocol.Runtime's contract is that Send/Broadcast are
// called from the node's single event loop, and the flush runs as a
// mailbox event on that same loop. No locks.

// maxBatchBytes caps one container's accumulated inner-frame bytes so
// the datagram stays under the UDP payload ceiling (65507 on loopback)
// with generous envelope headroom.
const maxBatchBytes = 60 << 10

// pendingPeer accumulates one peer's unsent frames back-to-back in a
// single buffer; ends[i] is the end offset of frame i and nums[i] its
// link number (the AppendBatch input format). container is the reusable
// envelope scratch.
type pendingPeer struct {
	buf       []byte
	ends      []int
	nums      []uint64
	container []byte
}

// batchSender is the optional transport fast path: hand a whole flush
// (one datagram per peer) to the socket in one call, so the UDP
// transport can issue a single sendmmsg syscall for all of it.
type batchSender interface {
	sendBatch(dsts []protocol.NodeID, frames [][]byte)
}

type coalescer struct {
	nn      *NetNode
	pending []pendingPeer
	// nextSeq[to] is the number the next fresh frame to peer to takes.
	nextSeq []uint64
	// dirty lists peers with parked frames in first-touch order; a peer
	// may appear twice after an inline size flush (the second visit finds
	// it empty and skips).
	dirty  []protocol.NodeID
	queued bool
	// flushFn is flush as a prebuilt func value, so scheduling a flush
	// does not allocate.
	flushFn func()
	// flush-time scratch for the batchSender call.
	dsts   []protocol.NodeID
	frames [][]byte
}

func newCoalescer(nn *NetNode) *coalescer {
	co := &coalescer{nn: nn, pending: make([]pendingPeer, nn.cfg.Params.N),
		nextSeq: make([]uint64, nn.cfg.Params.N)}
	co.flushFn = co.flush
	return co
}

// next takes the link number of a fresh frame to peer to. Event-loop
// only.
func (co *coalescer) next(to protocol.NodeID) uint64 {
	num := co.nextSeq[to]
	co.nextSeq[to]++
	return num
}

// add parks one encoded frame for peer to under link number num,
// scheduling a flush at the end of the current event burst. Event-loop
// only. The frame bytes are copied immediately (the caller's scratch
// buffer is free on return).
func (co *coalescer) add(to protocol.NodeID, frame []byte, num uint64) {
	p := &co.pending[to]
	if len(p.ends) == 0 {
		co.dirty = append(co.dirty, to)
	}
	p.buf = append(p.buf, frame...)
	p.ends = append(p.ends, len(p.buf))
	p.nums = append(p.nums, num)
	if len(p.ends) >= wire.MaxBatchFrames || len(p.buf) >= maxBatchBytes {
		// Full container: emit now rather than overflow the datagram. The
		// peer stays dirty-listed; later frames start a fresh batch.
		co.emit(to, p)
	}
	if !co.queued {
		co.queued = true
		co.nn.mbox.Enqueue(co.flushFn)
	}
}

// flush emits every dirty peer's pending frames. It runs as a mailbox
// event, i.e. after all handler events that were queued when the burst
// started — their frames are all parked by now.
func (co *coalescer) flush() {
	co.queued = false
	if len(co.dirty) == 0 {
		return
	}
	nn := co.nn
	bs, _ := nn.trans.(batchSender)
	co.dsts = co.dsts[:0]
	co.frames = co.frames[:0]
	for _, to := range co.dirty {
		p := &co.pending[to]
		if len(p.ends) == 0 {
			continue // emptied by an inline size flush
		}
		dg := co.pack(p)
		if bs == nil {
			nn.trans.send(to, dg)
			continue
		}
		co.dsts = append(co.dsts, to)
		co.frames = append(co.frames, dg)
	}
	co.dirty = co.dirty[:0]
	if bs != nil && len(co.dsts) > 0 {
		// The packed datagrams alias the per-peer buffers; that is safe
		// because only this event loop appends to them, and it is busy
		// right here until sendBatch returns.
		bs.sendBatch(co.dsts, co.frames)
	}
}

// emit sends one peer's pending frames immediately (inline size flush).
func (co *coalescer) emit(to protocol.NodeID, p *pendingPeer) {
	co.nn.trans.send(to, co.pack(p))
}

// pack turns a peer's pending frames into the container to put on the
// wire and resets the pending state.
func (co *coalescer) pack(p *pendingPeer) []byte {
	nn := co.nn
	p.container = wire.AppendBatch(p.container[:0], nn.cfg.ID, nn.epochID,
		int64(nn.nowTicks()), p.buf, p.ends, p.nums...)
	if len(p.ends) > 1 {
		nn.batchesSent.Add(1)
		nn.batchedFrames.Add(int64(len(p.ends)))
	}
	p.buf, p.ends, p.nums = p.buf[:0], p.ends[:0], p.nums[:0]
	return p.container
}
