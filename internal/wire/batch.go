package wire

import (
	"fmt"

	"ssbyz/internal/protocol"
)

// Batch container (version 2): the envelope of every data datagram on
// the live wire (DESIGN.md §7, §11). The frames one flush sends on a
// directed link — one or many — are packed into one FrameBatch frame
// whose payload is
//
//	FIRST(uvarint) COUNT(uvarint) then COUNT × ( STEP(varint) LEN(uvarint) FRAME-BYTES )
//
// where each FRAME-BYTES is a complete, self-delimiting AppendFrame
// encoding. FIRST and the zigzag STEPs number the inner frames on their
// link: entry i carries next+STEP, where next is FIRST for entry 0 and
// one past entry i-1's number after it. A sender numbering its frames
// consecutively writes STEP 0 everywhere, one byte per entry; a copy of
// the previous entry (a duplicated datagram) writes -1, and a replayed
// old frame jumps back to its original number. The receiver's
// anti-replay window judges each inner frame by that number.
//
// The explicit per-frame length prefix means the receiver can skip over
// an inner frame whose *content* is corrupt and still deliver its
// batch-mates — corruption of one coalesced frame must not drop the
// datagram (the chaos layer corrupts inner frames, never the container
// framing, so the per-class injected-AND-rejected accounting is
// preserved under batching). A corrupt number or length prefix, by
// contrast, destroys the framing from that point on: the reader stops
// with an error and the already-yielded frames stand.
//
// The container's envelope From and Epoch name the link the numbers
// belong to: the transport authenticates that sender and checks that
// epoch before it reads the container, and every inner frame must claim
// the same sender. Sent is the coalescing tick, for observability only;
// each inner frame is epoch-checked and deadline-checked on its own.

// MaxBatchFrames bounds the inner-frame count of one batch container; a
// corrupt count prefix larger than this is a decode error, not a loop.
const MaxBatchFrames = 512

// uvarintLen returns the encoded size of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// AppendBatch appends one FrameBatch envelope coalescing the given inner
// frames to dst and returns the extended slice. frames holds the
// concatenated AppendFrame encodings; ends[i] is the end offset of inner
// frame i, so the builder can accumulate frames back-to-back in one
// scratch buffer with no per-frame allocation. from/epoch/sent stamp the
// container's envelope (the sender and its coalescing tick). nums[i] is
// the link sequence number of inner frame i; frames beyond len(nums) are
// numbered one past their predecessor, the first of them 0 when nums is
// empty.
func AppendBatch(dst []byte, from protocol.NodeID, epoch uint64, sent int64, frames []byte, ends []int, nums ...uint64) []byte {
	var first uint64
	if len(nums) > 0 {
		first = nums[0]
	}
	psize := uvarintLen(first) + uvarintLen(uint64(len(ends)))
	start := 0
	for i, e := range ends {
		l := e - start
		psize += varintLen(batchStep(nums, i)) + uvarintLen(uint64(l)) + l
		start = e
	}
	dst = append(dst, magic0, magic1, Version, byte(FrameBatch))
	dst = appendVarint(dst, int64(from))
	dst = appendUvarint(dst, epoch)
	dst = appendVarint(dst, sent)
	dst = appendUvarint(dst, uint64(psize))
	dst = appendUvarint(dst, first)
	dst = appendUvarint(dst, uint64(len(ends)))
	start = 0
	for i, e := range ends {
		dst = appendVarint(dst, batchStep(nums, i))
		dst = appendUvarint(dst, uint64(e-start))
		dst = append(dst, frames[start:e]...)
		start = e
	}
	return dst
}

// batchStep is entry i's STEP: its number minus one past entry i-1's
// (FIRST is entry 0's own number). Entries beyond nums continue one past
// their predecessor, STEP 0. The subtraction wraps like the numbers.
func batchStep(nums []uint64, i int) int64 {
	if i == 0 || i >= len(nums) {
		return 0
	}
	return int64(nums[i] - nums[i-1] - 1)
}

// varintLen returns the encoded size of v as a zigzag varint.
func varintLen(v int64) int {
	return uvarintLen(uint64(v<<1) ^ uint64(v>>63))
}

// BatchReader iterates the inner frames of a FrameBatch payload without
// allocating: each Next returns a subslice of the payload (aliasing it —
// copy before retaining, as with Frame.Payload).
type BatchReader struct {
	b         []byte
	remaining int
	off       int
	next, seq uint64
	err       error
}

// ReadBatch opens a reader over a FrameBatch frame's payload. A zero
// count is corrupt (a batch exists only because it carries frames), as
// is a count beyond MaxBatchFrames.
func ReadBatch(payload []byte) (BatchReader, error) {
	first, off, err := uvarint(payload, 0)
	if err != nil {
		return BatchReader{}, err
	}
	count, off, err := uvarint(payload, off)
	if err != nil {
		return BatchReader{}, err
	}
	if count == 0 || count > MaxBatchFrames {
		return BatchReader{}, fmt.Errorf("%w: batch frame count %d (max %d)", ErrCorrupt, count, MaxBatchFrames)
	}
	return BatchReader{b: payload, remaining: int(count), off: off, next: first}, nil
}

// Next returns the next inner frame's bytes; Seq then reports its
// number. It returns false when the batch is exhausted or the container
// framing is invalid from this point on — check Err to distinguish.
// Frames yielded before an error stand: the transport delivers them and
// counts the rest as one decode drop.
func (r *BatchReader) Next() ([]byte, bool) {
	if r.err != nil || r.remaining == 0 {
		return nil, false
	}
	step, off, err := varint(r.b, r.off)
	if err != nil {
		r.err = err
		return nil, false
	}
	l, off, err := uvarint(r.b, off)
	if err != nil {
		r.err = err
		return nil, false
	}
	if l > MaxPayload {
		r.err = fmt.Errorf("%w: inner frame length %d exceeds %d", ErrCorrupt, l, MaxPayload)
		return nil, false
	}
	if off+int(l) > len(r.b) {
		r.err = ErrTruncated
		return nil, false
	}
	r.remaining--
	r.off = off + int(l)
	r.seq = r.next + uint64(step)
	r.next = r.seq + 1
	if r.remaining == 0 && r.off != len(r.b) {
		// Trailing bytes after the declared last frame: container corruption
		// (one batch per datagram, like the one-frame-per-datagram rule).
		// The final frame itself parsed cleanly and is still yielded; Err
		// reports the problem.
		r.err = fmt.Errorf("%w: %d trailing bytes after batch", ErrCorrupt, len(r.b)-r.off)
	}
	return r.b[off : off+int(l)], true
}

// Seq returns the link sequence number of the inner frame Next last
// yielded.
func (r *BatchReader) Seq() uint64 { return r.seq }

// Remaining returns how many inner frames the container declares beyond
// those Next has yielded.
func (r *BatchReader) Remaining() int { return r.remaining }

// Err reports the container-framing error that stopped iteration, if
// any. Inner-frame *content* errors are not container errors — they
// surface from DecodeFrame on the yielded bytes and affect only that
// frame.
func (r *BatchReader) Err() error { return r.err }
