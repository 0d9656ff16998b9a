package wire

import (
	"fmt"

	"ssbyz/internal/protocol"
)

// Batch container (version 1): the coalesced multi-frame envelope of the
// wire-rate hot path (DESIGN.md §11). Frames destined for the same
// (link, tick) are
// packed into one FrameBatch frame whose payload is
//
//	COUNT(uvarint) then COUNT × ( LEN(uvarint) FRAME-BYTES )
//
// where each FRAME-BYTES is a complete, self-delimiting AppendFrame
// encoding. The explicit per-frame length prefix means the receiver can
// skip over an inner frame whose *content* is corrupt and still deliver
// its batch-mates — corruption of one coalesced frame must not drop the
// datagram (the chaos layer corrupts inner frames, never the container
// framing, so the per-class injected-AND-rejected accounting is
// preserved under batching). A corrupt length prefix, by contrast,
// destroys the framing from that point on: the reader stops with an
// error and the already-yielded frames stand.
//
// The container's own envelope From/Epoch/Sent mirror the sender and
// the coalescing tick for observability, but carry no authority: every
// inner frame is authenticated, epoch-checked, deadline-checked and
// deduplicated individually, exactly as if it had arrived in its own
// datagram.

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
// container's envelope (the sender and its coalescing tick).
func AppendBatch(dst []byte, from protocol.NodeID, epoch uint64, sent int64, frames []byte, ends []int) []byte {
	psize := uvarintLen(uint64(len(ends)))
	start := 0
	for _, e := range ends {
		l := e - start
		psize += uvarintLen(uint64(l)) + l
		start = e
	}
	dst = append(dst, magic0, magic1, Version, byte(FrameBatch))
	dst = appendVarint(dst, int64(from))
	dst = appendUvarint(dst, epoch)
	dst = appendVarint(dst, sent)
	dst = appendUvarint(dst, uint64(psize))
	dst = appendUvarint(dst, uint64(len(ends)))
	start = 0
	for _, e := range ends {
		dst = appendUvarint(dst, uint64(e-start))
		dst = append(dst, frames[start:e]...)
		start = e
	}
	return dst
}

// BatchReader iterates the inner frames of a FrameBatch payload without
// allocating: each Next returns a subslice of the payload (aliasing it —
// copy before retaining, as with Frame.Payload).
type BatchReader struct {
	b         []byte
	remaining int
	off       int
	err       error
}

// ReadBatch opens a reader over a FrameBatch frame's payload. A zero
// count is corrupt (a batch exists only because it carries frames), as
// is a count beyond MaxBatchFrames.
func ReadBatch(payload []byte) (BatchReader, error) {
	count, off, err := uvarint(payload, 0)
	if err != nil {
		return BatchReader{}, err
	}
	if count == 0 || count > MaxBatchFrames {
		return BatchReader{}, fmt.Errorf("%w: batch frame count %d (max %d)", ErrCorrupt, count, MaxBatchFrames)
	}
	return BatchReader{b: payload, remaining: int(count), off: off}, nil
}

// Next returns the next inner frame's bytes. It returns false when the
// batch is exhausted or the container framing is invalid from this point
// on — check Err to distinguish. Frames yielded before an error stand:
// the transport delivers them and counts the rest as one decode drop.
func (r *BatchReader) Next() ([]byte, bool) {
	if r.err != nil || r.remaining == 0 {
		return nil, false
	}
	l, off, err := uvarint(r.b, r.off)
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
	if r.remaining == 0 && r.off != len(r.b) {
		// Trailing bytes after the declared last frame: container corruption
		// (one batch per datagram, like the one-frame-per-datagram rule).
		// The final frame itself parsed cleanly and is still yielded; Err
		// reports the problem.
		r.err = fmt.Errorf("%w: %d trailing bytes after batch", ErrCorrupt, len(r.b)-r.off)
	}
	return r.b[off : off+int(l)], true
}

// Remaining returns how many inner frames the container declares beyond
// those Next has yielded.
func (r *BatchReader) Remaining() int { return r.remaining }

// Err reports the container-framing error that stopped iteration, if
// any. Inner-frame *content* errors are not container errors — they
// surface from DecodeFrame on the yielded bytes and affect only that
// frame.
func (r *BatchReader) Err() error { return r.err }
