// Package wire is the binary codec of the live network runtime: a
// compact, versioned, allocation-frugal encoding of protocol.Message and
// protocol.TraceEvent, plus the session-framing envelope (frame kind,
// sender node id, cluster epoch, send tick, length-prefixed payload) that
// internal/nettrans speaks over UDP datagrams and TCP streams.
//
// The paper's model authenticates the sender of every message ("a
// non-faulty node can identify the sending node of every incoming
// message"); on a real network that guarantee has to be re-established
// from bytes, so every frame carries the claimed sender id and the
// transport cross-checks it against the socket source address before a
// message reaches protocol code. The cluster epoch field rejects frames
// from a previous incarnation of the cluster on a reused port, and the
// send-tick field lets the receiver enforce the paper's bounded-delay
// axiom by dropping frames older than d (transport-level deadline drops —
// late delivery would violate the model the proofs assume, so a late
// frame is treated exactly like a lost one). Data frames travel inside
// a batch container (batch.go) that numbers them on their directed link,
// so a receiver suppresses duplicated and replayed datagrams with a
// fixed anti-replay window instead of remembering payloads.
//
// Encoding rules (version 2):
//
//   - all integers are varints (encoding/binary), zigzag for signed;
//   - strings are a uvarint byte length followed by raw bytes;
//   - a frame is MAGIC(2) VERSION(1) KIND(1) FROM EPOCH SENT LEN PAYLOAD,
//     self-delimiting so the same bytes work as one UDP datagram or as a
//     record in a TCP stream;
//   - a FrameBatch payload is FIRST COUNT then COUNT × (STEP LEN FRAME):
//     the link sequence number of the first inner frame, then each inner
//     frame's distance from the next number in line and its encoding.
//
// Every Append* function appends to the caller's buffer and returns the
// extended slice, so steady-state encoding performs zero allocations once
// the per-connection scratch buffer has grown to the working-set size.
// Decoding never panics on truncated or corrupt input — the fuzz harness
// (fuzz_test.go) and the corruption tests pin that.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ssbyz/internal/protocol"
	"ssbyz/internal/simtime"
)

// Version is the codec version stamped into every frame. A decoder
// rejects frames whose version it does not know. Version 2 added the
// link sequence numbers of the batch container.
const Version = 2

// magic0, magic1 open every frame ("sB" — ss-Byz). Two fixed bytes let a
// receiver discard port-scan noise and cross-protocol garbage cheaply.
const (
	magic0 = 's'
	magic1 = 'B'
)

// MaxValueLen bounds the decoded length of a Value or other string field;
// a corrupt length prefix larger than this is a decode error, not an
// allocation.
const MaxValueLen = 1 << 16

// MaxPayload bounds a frame's payload length. Protocol messages are tens
// of bytes; anything near this limit is corruption.
const MaxPayload = 1 << 20

// FrameKind tags what a frame's payload carries.
type FrameKind uint8

const (
	// FrameHello opens a session: the payload is empty, the envelope's
	// From/Epoch identify the peer. TCP peers send it first.
	FrameHello FrameKind = 1
	// FrameMessage carries one encoded protocol.Message.
	FrameMessage FrameKind = 2
	// FrameBatch carries a batch of complete, numbered inner frames
	// (batch.go): FIRST, COUNT, then COUNT × (STEP, LEN, frame bytes). One
	// batch is one datagram / one stream record and every data frame
	// travels in one; every inner frame is authenticated and checked
	// individually on receipt.
	FrameBatch FrameKind = 7
)

// knownKinds has bit k set for every frame kind DecodeFrame accepts.
// Kinds 3–6 are retired numbers and stay unknown.
const knownKinds uint64 = 1<<FrameHello | 1<<FrameMessage | 1<<FrameBatch

func (k FrameKind) String() string {
	switch k {
	case FrameHello:
		return "hello"
	case FrameMessage:
		return "message"
	case FrameBatch:
		return "batch"
	}
	return fmt.Sprintf("framekind(%d)", uint8(k))
}

// Frame is the session envelope around every payload.
type Frame struct {
	Kind FrameKind
	// From is the sender's claimed node id; the transport authenticates it
	// against the socket source address (the paper's sender-identification
	// assumption, re-established from bytes).
	From protocol.NodeID
	// Epoch identifies the cluster incarnation (the manifest's epoch, unix
	// nanoseconds). Frames from another epoch are dropped.
	Epoch uint64
	// Sent is the sender's clock reading (ticks since the epoch) when the
	// frame was emitted; receivers drop frames older than d.
	Sent int64
	// Payload is the encoded body. After DecodeFrame it aliases the input
	// buffer — copy before retaining.
	Payload []byte
}

// Decode errors. errors.Is-comparable so transports can count classes.
var (
	// ErrTruncated reports input that ended mid-field.
	ErrTruncated = errors.New("wire: truncated input")
	// ErrCorrupt reports input that parsed but violated an invariant
	// (bad magic, unknown version, oversized length, overlong varint).
	ErrCorrupt = errors.New("wire: corrupt input")
)

// ---- varint primitives ----

// appendUvarint appends v as a uvarint.
func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// appendVarint appends v as a zigzag varint.
func appendVarint(dst []byte, v int64) []byte {
	return binary.AppendVarint(dst, v)
}

// uvarint reads a uvarint at b[off:].
func uvarint(b []byte, off int) (uint64, int, error) {
	if off >= len(b) {
		return 0, off, ErrTruncated
	}
	v, n := binary.Uvarint(b[off:])
	if n == 0 {
		return 0, off, ErrTruncated
	}
	if n < 0 {
		return 0, off, ErrCorrupt
	}
	return v, off + n, nil
}

// varint reads a zigzag varint at b[off:].
func varint(b []byte, off int) (int64, int, error) {
	if off >= len(b) {
		return 0, off, ErrTruncated
	}
	v, n := binary.Varint(b[off:])
	if n == 0 {
		return 0, off, ErrTruncated
	}
	if n < 0 {
		return 0, off, ErrCorrupt
	}
	return v, off + n, nil
}

// appendString appends a length-prefixed string.
func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// readString reads a length-prefixed string at b[off:], through vals
// when it is non-nil. The result never aliases b.
func readString(b []byte, off int, vals *Values) (string, int, error) {
	l, off, err := uvarint(b, off)
	if err != nil {
		return "", off, err
	}
	if l > MaxValueLen {
		return "", off, fmt.Errorf("%w: string length %d exceeds %d", ErrCorrupt, l, MaxValueLen)
	}
	if off+int(l) > len(b) {
		return "", off, ErrTruncated
	}
	return vals.intern(b[off : off+int(l)]), off + int(l), nil
}

// valueSlots is the number of values a Values cache remembers.
const valueSlots = 64

// Values is a small direct-mapped cache of decoded message values. An
// agreement carries one value in thousands of messages, so a receiver
// that decodes through a Values cache allocates that value's string
// once instead of once per message. A value whose slot holds another
// value is decoded into a fresh string that takes the slot: an attacker
// cycling distinct values costs the receiver what plain DecodeMessage
// costs, never more memory. The zero value is ready to use; a Values is
// not safe for concurrent use.
type Values struct {
	slots [valueSlots]string
}

// intern returns b as a string, reusing the cached one when it matches.
// The cached strings are fresh copies, never views of b.
func (v *Values) intern(b []byte) string {
	if v == nil || len(b) == 0 {
		return string(b)
	}
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, c := range b {
		h = (h ^ uint64(c)) * prime
	}
	slot := &v.slots[h%valueSlots]
	if *slot != string(b) {
		*slot = string(b)
	}
	return *slot
}

// ---- protocol.Message ----

// AppendMessage appends the encoding of m (unchanged since version 1)
// to dst and returns the extended slice. Field order: Kind, G, P, K,
// Aux, From, M.
func AppendMessage(dst []byte, m protocol.Message) []byte {
	dst = appendVarint(dst, int64(m.Kind))
	dst = appendVarint(dst, int64(m.G))
	dst = appendVarint(dst, int64(m.P))
	dst = appendVarint(dst, int64(m.K))
	dst = appendVarint(dst, int64(m.Aux))
	dst = appendVarint(dst, int64(m.From))
	dst = appendString(dst, string(m.M))
	return dst
}

// DecodeMessage decodes one message from b, returning it and the number
// of bytes consumed. Trailing bytes are not an error (streams concatenate
// records); truncated or corrupt input is.
func DecodeMessage(b []byte) (protocol.Message, int, error) {
	return decodeMessage(b, nil)
}

// DecodeMessage is wire.DecodeMessage with the value taken through the
// cache.
func (v *Values) DecodeMessage(b []byte) (protocol.Message, int, error) {
	return decodeMessage(b, v)
}

func decodeMessage(b []byte, vals *Values) (protocol.Message, int, error) {
	var m protocol.Message
	var v int64
	var err error
	off := 0
	if v, off, err = varint(b, off); err != nil {
		return m, off, err
	}
	m.Kind = protocol.MsgKind(v)
	if v, off, err = varint(b, off); err != nil {
		return m, off, err
	}
	m.G = protocol.NodeID(v)
	if v, off, err = varint(b, off); err != nil {
		return m, off, err
	}
	m.P = protocol.NodeID(v)
	if v, off, err = varint(b, off); err != nil {
		return m, off, err
	}
	m.K = int(v)
	if v, off, err = varint(b, off); err != nil {
		return m, off, err
	}
	m.Aux = int(v)
	if v, off, err = varint(b, off); err != nil {
		return m, off, err
	}
	m.From = protocol.NodeID(v)
	var s string
	if s, off, err = readString(b, off, vals); err != nil {
		return m, off, err
	}
	m.M = protocol.Value(s)
	return m, off, nil
}

// ---- protocol.TraceEvent ----

// AppendTraceEvent appends the encoding of ev (unchanged since version
// 1) to dst. Field order: Kind, Node, RT, Tau, G, K, TauG, RTauG, P, M.
// Records are
// self-delimiting, so a whole trace is their plain concatenation (the
// body the ops plane serves on GET /trace).
func AppendTraceEvent(dst []byte, ev protocol.TraceEvent) []byte {
	dst = appendVarint(dst, int64(ev.Kind))
	dst = appendVarint(dst, int64(ev.Node))
	dst = appendVarint(dst, int64(ev.RT))
	dst = appendVarint(dst, int64(ev.Tau))
	dst = appendVarint(dst, int64(ev.G))
	dst = appendVarint(dst, int64(ev.K))
	dst = appendVarint(dst, int64(ev.TauG))
	dst = appendVarint(dst, int64(ev.RTauG))
	dst = appendVarint(dst, int64(ev.P))
	dst = appendString(dst, string(ev.M))
	return dst
}

// DecodeTraceEvent decodes one trace event from b, returning it and the
// bytes consumed.
func DecodeTraceEvent(b []byte) (protocol.TraceEvent, int, error) {
	var ev protocol.TraceEvent
	var v int64
	var err error
	off := 0
	if v, off, err = varint(b, off); err != nil {
		return ev, off, err
	}
	ev.Kind = protocol.EventKind(v)
	if v, off, err = varint(b, off); err != nil {
		return ev, off, err
	}
	ev.Node = protocol.NodeID(v)
	if v, off, err = varint(b, off); err != nil {
		return ev, off, err
	}
	ev.RT = simtime.Real(v)
	if v, off, err = varint(b, off); err != nil {
		return ev, off, err
	}
	ev.Tau = simtime.Local(v)
	if v, off, err = varint(b, off); err != nil {
		return ev, off, err
	}
	ev.G = protocol.NodeID(v)
	if v, off, err = varint(b, off); err != nil {
		return ev, off, err
	}
	ev.K = int(v)
	if v, off, err = varint(b, off); err != nil {
		return ev, off, err
	}
	ev.TauG = simtime.Local(v)
	if v, off, err = varint(b, off); err != nil {
		return ev, off, err
	}
	ev.RTauG = simtime.Real(v)
	if v, off, err = varint(b, off); err != nil {
		return ev, off, err
	}
	ev.P = protocol.NodeID(v)
	var s string
	if s, off, err = readString(b, off, nil); err != nil {
		return ev, off, err
	}
	ev.M = protocol.Value(s)
	return ev, off, nil
}

// ---- frame envelope ----

// AppendFrame appends the full envelope (magic, version, kind, from,
// epoch, sent, payload length, payload) to dst. The result is one UDP
// datagram, or one record of a TCP stream — the encoding is
// self-delimiting either way.
func AppendFrame(dst []byte, f Frame) []byte {
	dst = append(dst, magic0, magic1, Version, byte(f.Kind))
	dst = appendVarint(dst, int64(f.From))
	dst = appendUvarint(dst, f.Epoch)
	dst = appendVarint(dst, f.Sent)
	dst = appendUvarint(dst, uint64(len(f.Payload)))
	return append(dst, f.Payload...)
}

// DecodeFrame decodes one frame from b, returning it and the bytes
// consumed. Frame.Payload aliases b — copy before retaining. A stream
// reader calls DecodeFrame repeatedly, advancing by the consumed count; a
// datagram receiver additionally treats trailing bytes as corruption
// (one frame per datagram).
func DecodeFrame(b []byte) (Frame, int, error) {
	var f Frame
	if len(b) < 4 {
		return f, 0, ErrTruncated
	}
	if b[0] != magic0 || b[1] != magic1 {
		return f, 0, fmt.Errorf("%w: bad magic %#02x%02x", ErrCorrupt, b[0], b[1])
	}
	if b[2] != Version {
		return f, 0, fmt.Errorf("%w: unknown version %d", ErrCorrupt, b[2])
	}
	f.Kind = FrameKind(b[3])
	if knownKinds>>b[3]&1 == 0 {
		return f, 0, fmt.Errorf("%w: unknown frame kind %d", ErrCorrupt, b[3])
	}
	var v int64
	var u uint64
	var err error
	off := 4
	if v, off, err = varint(b, off); err != nil {
		return f, off, err
	}
	f.From = protocol.NodeID(v)
	if u, off, err = uvarint(b, off); err != nil {
		return f, off, err
	}
	f.Epoch = u
	if v, off, err = varint(b, off); err != nil {
		return f, off, err
	}
	f.Sent = v
	if u, off, err = uvarint(b, off); err != nil {
		return f, off, err
	}
	if u > MaxPayload {
		return f, off, fmt.Errorf("%w: payload length %d exceeds %d", ErrCorrupt, u, MaxPayload)
	}
	if off+int(u) > len(b) {
		return f, off, ErrTruncated
	}
	f.Payload = b[off : off+int(u)]
	return f, off + int(u), nil
}
