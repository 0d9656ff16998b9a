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
// single buffer; ends[i] is the end offset of frame i (the AppendBatch
// input format). container is the reusable envelope scratch.
type pendingPeer struct {
	buf       []byte
	ends      []int
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
	co := &coalescer{nn: nn, pending: make([]pendingPeer, nn.cfg.Params.N)}
	co.flushFn = co.flush
	return co
}

// add parks one encoded frame for peer to, scheduling a flush at the
// end of the current event burst. Event-loop only. The frame bytes are
// copied immediately (the caller's scratch buffer is free on return).
func (co *coalescer) add(to protocol.NodeID, frame []byte) {
	p := &co.pending[to]
	if len(p.ends) == 0 {
		co.dirty = append(co.dirty, to)
	}
	p.buf = append(p.buf, frame...)
	p.ends = append(p.ends, len(p.buf))
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
		dg := co.pack(to, p)
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
	co.nn.trans.send(to, co.pack(to, p))
}

// pack turns a peer's pending frames into the bytes to put on the wire
// and resets the pending state. A lone frame ships raw — a plain
// FrameMessage datagram, no container — so batching only ever appears on
// the wire when it actually coalesces.
func (co *coalescer) pack(to protocol.NodeID, p *pendingPeer) []byte {
	nn := co.nn
	if len(p.ends) == 1 {
		dg := p.buf
		p.buf, p.ends = p.buf[:0], p.ends[:0]
		return dg
	}
	p.container = wire.AppendBatch(p.container[:0], nn.cfg.ID, nn.epochID,
		int64(nn.nowTicks()), p.buf, p.ends)
	nn.batchesSent.Add(1)
	nn.batchedFrames.Add(int64(len(p.ends)))
	p.buf, p.ends = p.buf[:0], p.ends[:0]
	return p.container
}
