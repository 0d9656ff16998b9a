package nettrans

import "ssbyz/internal/simtime"

// Receive-side duplicate suppression: the transport-level defense that
// restores the paper's at-most-once delivery from datagram semantics. A
// UDP network (or a duplicate/replay attacker) may deliver the same
// datagram twice; the protocol state machines are idempotent under
// identical re-delivery, but counting and proving the defense requires
// catching the duplicate at the transport.
//
// Every data frame travels in a batch container that numbers it on its
// directed link (internal/wire/batch.go): the sender's coalescer counts
// each link's frames, and a duplicated or replayed datagram carries the
// numbers of the frames it copies. The receiver keeps one anti-replay
// window per sender — the highest number admitted and a bitmap of the
// numbers just behind it — in the manner of IPsec's sequence-number
// check (RFC 4303 §3.4.3), with the bitmap kept as a ring of words that
// advances by clearing whole words instead of shifting (RFC 6479). A
// number whose bit is set is a duplicate (dup_drops); a number left of
// the bitmap can no longer be judged and is dropped too (seq_stale).
//
// Only the goroutine that ingests a sender touches its window: the UDP
// shard its source address maps to, the TCP reader of its session
// (under the transport's per-sender lock), or the virtual wire's pump.
// The window needs no lock of its own.

// replayWords is the bitmap's size in 64-bit words, and replaySpan the
// numbers behind the highest admitted one it judges: 4032. DESIGN.md §11
// argues the size from the deepest reorder the chaos layer and the
// virtual wire produce within d.
const (
	replayWords = 64
	replaySpan  = (replayWords - 1) * 64
)

// replayVerdict is the window's judgement of one number.
type replayVerdict uint8

const (
	replayFresh replayVerdict = iota // admitted and now marked
	replayDup                        // already admitted: dup_drops
	replayStale                      // left of the bitmap: seq_stale
)

// replayWindow is one sender's anti-replay state for one incarnation.
// The zero value is an empty window that admits every number.
type replayWindow struct {
	epoch    uint64       // the sender incarnation the numbers belong to
	high     uint64       // highest number admitted
	advanced simtime.Real // receive tick at which high last advanced
	bits     [replayWords]uint64
}

// admit judges num at receive tick now and marks it when fresh.
//
// It is self-stabilizing (DESIGN.md §11): a frame it would drop while
// high has not advanced for more than d restarts the window at that
// frame. A corrupted high, bitmap or advance tick, or a sender whose
// counter went backwards, therefore costs at most d of that sender's
// traffic. The restart cannot readmit a genuine duplicate or replay on
// UDP: a sender numbers its frames in send order, so the frame that set
// high was sent no earlier than the dropped frame's original; a dropped
// frame arriving more than d after high advanced is therefore more than
// d old, and the deadline check runs first.
func (w *replayWindow) admit(num uint64, now simtime.Real, d simtime.Duration) replayVerdict {
	bit := uint64(1) << (num % 64)
	switch {
	case num > w.high:
		// Clear the words num's block passes over; a jump of more than the
		// whole ring clears all of it.
		for b, n := w.high/64+1, 0; b <= num/64 && n < replayWords; b, n = b+1, n+1 {
			w.bits[b%replayWords] = 0
		}
		w.high, w.advanced = num, now
	case w.high-num >= replaySpan:
		if !w.restart(num, now, d) {
			return replayStale
		}
	case w.bits[num/64%replayWords]&bit != 0:
		if !w.restart(num, now, d) {
			return replayDup
		}
	}
	w.bits[num/64%replayWords] |= bit
	return replayFresh
}

// restart empties the window down to num when high has not advanced for
// more than d: unsigned, so an advance tick from the future restarts too.
func (w *replayWindow) restart(num uint64, now simtime.Real, d simtime.Duration) bool {
	if uint64(now-w.advanced) <= uint64(d) {
		return false
	}
	*w = replayWindow{epoch: w.epoch, high: num, advanced: now}
	return true
}
