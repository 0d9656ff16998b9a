package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ssbyz/internal/protocol"
	"ssbyz/internal/simtime"
)

// allKinds enumerates every message kind of the three protocol layers.
var allKinds = []protocol.MsgKind{
	protocol.Initiator, protocol.Support, protocol.Approve, protocol.Ready,
	protocol.Init, protocol.Echo, protocol.InitPrime, protocol.EchoPrime,
	protocol.BaselineRound,
}

// randomMessage draws one message with adversarial field values: extreme
// ints, empty/unicode/long values, out-of-range kinds.
func randomMessage(rng *rand.Rand) protocol.Message {
	values := []protocol.Value{
		"", "v", "π≠⊥", protocol.Value(strings.Repeat("x", 300)),
		protocol.Value([]byte{0, 255, 128}),
	}
	ints := []int{0, 1, -1, 7, 1 << 30, -(1 << 30), int(int32(-1))}
	return protocol.Message{
		Kind: allKinds[rng.Intn(len(allKinds))],
		G:    protocol.NodeID(ints[rng.Intn(len(ints))]),
		M:    values[rng.Intn(len(values))],
		P:    protocol.NodeID(rng.Intn(256) - 128),
		K:    ints[rng.Intn(len(ints))],
		Aux:  ints[rng.Intn(len(ints))],
		From: protocol.NodeID(rng.Intn(256) - 128),
	}
}

func randomEvent(rng *rand.Rand) protocol.TraceEvent {
	reals := []simtime.Real{0, 1, -5, 1 << 40, -(1 << 40)}
	return protocol.TraceEvent{
		Kind:  protocol.EventKind(rng.Intn(12)),
		Node:  protocol.NodeID(rng.Intn(300)),
		RT:    reals[rng.Intn(len(reals))],
		Tau:   simtime.Local(rng.Int63n(1<<50) - 1<<49),
		G:     protocol.NodeID(rng.Intn(300) - 150),
		M:     protocol.Value([]string{"", "m", "päper", strings.Repeat("y", 100)}[rng.Intn(4)]),
		K:     rng.Intn(1<<20) - 1<<19,
		TauG:  simtime.Local(reals[rng.Intn(len(reals))]),
		RTauG: reals[rng.Intn(len(reals))],
		P:     protocol.NodeID(rng.Intn(300)),
	}
}

// TestMessageRoundTripEveryKind round-trips one representative message of
// every wire kind byte-exactly (the acceptance bar of the codec).
func TestMessageRoundTripEveryKind(t *testing.T) {
	for _, k := range allKinds {
		m := protocol.Message{Kind: k, G: 3, M: "v⊥", P: 2, K: 5, Aux: -7, From: 1}
		b := AppendMessage(nil, m)
		got, n, err := DecodeMessage(b)
		if err != nil {
			t.Fatalf("kind %v: decode: %v", k, err)
		}
		if n != len(b) {
			t.Errorf("kind %v: consumed %d of %d bytes", k, n, len(b))
		}
		if got != m {
			t.Errorf("kind %v: round trip %+v != %+v", k, got, m)
		}
	}
}

// TestMessageRoundTripRandom is the property test: a seeded corpus of
// adversarial field combinations must round-trip byte-exactly, and
// re-encoding the decoded message must reproduce the original bytes.
func TestMessageRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		m := randomMessage(rng)
		b := AppendMessage(nil, m)
		got, n, err := DecodeMessage(b)
		if err != nil {
			t.Fatalf("msg %d (%+v): decode: %v", i, m, err)
		}
		if n != len(b) || got != m {
			t.Fatalf("msg %d: round trip mismatch: %+v -> %+v (%d/%d bytes)", i, m, got, n, len(b))
		}
		if again := AppendMessage(nil, got); !bytes.Equal(again, b) {
			t.Fatalf("msg %d: re-encode differs", i)
		}
	}
}

// TestTraceEventRoundTripRandom is the same property over trace events.
func TestTraceEventRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		ev := randomEvent(rng)
		b := AppendTraceEvent(nil, ev)
		got, n, err := DecodeTraceEvent(b)
		if err != nil {
			t.Fatalf("event %d (%+v): decode: %v", i, ev, err)
		}
		if n != len(b) || got != ev {
			t.Fatalf("event %d: round trip mismatch: %+v -> %+v", i, ev, got)
		}
	}
}

// TestFrameRoundTrip covers the envelope: every frame kind, empty and
// non-empty payloads, extreme epoch/tick values.
func TestFrameRoundTrip(t *testing.T) {
	payload := AppendMessage(nil, protocol.Message{Kind: protocol.Echo, G: 1, M: "m", K: 2})
	frames := []Frame{
		{Kind: FrameHello, From: 0, Epoch: 0},
		{Kind: FrameMessage, From: 3, Epoch: 1<<63 + 17, Sent: 12345, Payload: payload},
		{Kind: FrameBatch, From: 127, Epoch: 42, Sent: -1, Payload: []byte{0}},
		{Kind: FrameHello, From: 6, Epoch: 9, Sent: 1 << 50},
	}
	for _, f := range frames {
		b := AppendFrame(nil, f)
		got, n, err := DecodeFrame(b)
		if err != nil {
			t.Fatalf("%v: decode: %v", f.Kind, err)
		}
		if n != len(b) {
			t.Errorf("%v: consumed %d of %d bytes", f.Kind, n, len(b))
		}
		if got.Kind != f.Kind || got.From != f.From || got.Epoch != f.Epoch || got.Sent != f.Sent {
			t.Errorf("%v: envelope mismatch: %+v", f.Kind, got)
		}
		if !bytes.Equal(got.Payload, f.Payload) {
			t.Errorf("%v: payload mismatch", f.Kind)
		}
	}
}

// TestFrameStreamDecoding checks stream semantics: concatenated frames
// decode one after another by advancing the consumed count.
func TestFrameStreamDecoding(t *testing.T) {
	var stream []byte
	want := []Frame{
		{Kind: FrameHello, From: 2, Epoch: 7},
		{Kind: FrameMessage, From: 2, Epoch: 7, Sent: 10, Payload: []byte("abc")},
		{Kind: FrameMessage, From: 2, Epoch: 7, Sent: 20, Payload: []byte("de")},
	}
	for _, f := range want {
		stream = AppendFrame(stream, f)
	}
	off := 0
	for i, f := range want {
		got, n, err := DecodeFrame(stream[off:])
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Kind != f.Kind || got.Sent != f.Sent {
			t.Errorf("frame %d: got %+v", i, got)
		}
		off += n
	}
	if off != len(stream) {
		t.Errorf("stream not fully consumed: %d of %d", off, len(stream))
	}
}

// TestDecodeTruncatedNeverPanics feeds every proper prefix of valid
// encodings to each decoder: all must error (no partial success at the
// full length minus one) and none may panic.
func TestDecodeTruncatedNeverPanics(t *testing.T) {
	m := protocol.Message{Kind: protocol.InitPrime, G: 5, M: "value", P: 3, K: 9, Aux: 1, From: 4}
	mb := AppendMessage(nil, m)
	for i := 0; i < len(mb); i++ {
		if _, _, err := DecodeMessage(mb[:i]); err == nil {
			t.Errorf("DecodeMessage accepted %d-byte prefix of %d", i, len(mb))
		}
	}
	ev := protocol.TraceEvent{Kind: protocol.EvDecide, Node: 1, RT: 100, M: "v"}
	eb := AppendTraceEvent(nil, ev)
	for i := 0; i < len(eb); i++ {
		if _, _, err := DecodeTraceEvent(eb[:i]); err == nil {
			t.Errorf("DecodeTraceEvent accepted %d-byte prefix of %d", i, len(eb))
		}
	}
	fb := AppendFrame(nil, Frame{Kind: FrameMessage, From: 1, Epoch: 3, Sent: 4, Payload: mb})
	for i := 0; i < len(fb); i++ {
		if _, _, err := DecodeFrame(fb[:i]); err == nil {
			t.Errorf("DecodeFrame accepted %d-byte prefix of %d", i, len(fb))
		}
	}
}

// TestDecodeCorruptFrames pins the corruption taxonomy: bad magic,
// unknown version, unknown kind, oversized declared lengths, overlong
// varints. All must return ErrCorrupt or ErrTruncated — never panic,
// never succeed.
func TestDecodeCorruptFrames(t *testing.T) {
	valid := AppendFrame(nil, Frame{Kind: FrameMessage, From: 1, Epoch: 2, Sent: 3, Payload: []byte("p")})
	overlong := bytes.Repeat([]byte{0x80}, 11) // varint with no terminator in 10 bytes

	cases := []struct {
		name string
		b    []byte
		want error
	}{
		{"bad magic", append([]byte{'x', 'y'}, valid[2:]...), ErrCorrupt},
		{"bad version", append([]byte{magic0, magic1, 99}, valid[3:]...), ErrCorrupt},
		{"zero kind", append([]byte{magic0, magic1, Version, 0}, valid[4:]...), ErrCorrupt},
		{"huge kind", append([]byte{magic0, magic1, Version, 200}, valid[4:]...), ErrCorrupt},
		{"overlong varint from", append([]byte{magic0, magic1, Version, byte(FrameHello)}, overlong...), ErrCorrupt},
		{"payload length lies", AppendFrame(nil, Frame{Kind: FrameHello})[:4+3], ErrTruncated},
		{"empty", nil, ErrTruncated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := DecodeFrame(tc.b)
			if err == nil {
				t.Fatal("decode succeeded on corrupt input")
			}
			if !errors.Is(err, tc.want) {
				t.Errorf("error %v, want %v", err, tc.want)
			}
		})
	}

	// Declared payload length beyond MaxPayload must be ErrCorrupt even
	// though the buffer is short (no allocation from the lie).
	huge := append([]byte{magic0, magic1, Version, byte(FrameMessage)}, 0) // from=0
	huge = appendUvarint(huge, 1)                                          // epoch
	huge = appendVarint(huge, 0)                                           // sent
	huge = appendUvarint(huge, MaxPayload+1)
	if _, _, err := DecodeFrame(huge); !errors.Is(err, ErrCorrupt) {
		t.Errorf("oversized payload length: %v, want ErrCorrupt", err)
	}

	// Oversized string length inside a message payload.
	msg := appendVarint(nil, int64(protocol.Echo))
	for i := 0; i < 5; i++ {
		msg = appendVarint(msg, 0)
	}
	msg = appendUvarint(msg, MaxValueLen+1)
	if _, _, err := DecodeMessage(msg); !errors.Is(err, ErrCorrupt) {
		t.Errorf("oversized value length: %v, want ErrCorrupt", err)
	}
}

// TestAppendIsAllocationFrugal pins the codec's hot-path contract: with a
// pre-grown scratch buffer, encoding a message (and its frame) performs
// zero allocations.
func TestAppendIsAllocationFrugal(t *testing.T) {
	m := protocol.Message{Kind: protocol.Echo, G: 3, M: "steady-state", P: 1, K: 4, From: 2}
	scratch := make([]byte, 0, 256)
	if avg := testing.AllocsPerRun(200, func() {
		scratch = scratch[:0]
		scratch = AppendMessage(scratch, m)
	}); avg != 0 {
		t.Errorf("AppendMessage allocates %.1f/op with presized buffer, want 0", avg)
	}
	payload := AppendMessage(nil, m)
	frame := make([]byte, 0, 512)
	if avg := testing.AllocsPerRun(200, func() {
		frame = frame[:0]
		frame = AppendFrame(frame, Frame{Kind: FrameMessage, From: 2, Epoch: 5, Sent: 9, Payload: payload})
	}); avg != 0 {
		t.Errorf("AppendFrame allocates %.1f/op with presized buffer, want 0", avg)
	}
}

// TestValuesDecodeInternsWithoutAliasing pins the receive-side value
// cache: a repeated value decodes without allocating, the decoded value
// stays intact when the input buffer is reused, and values that share a
// slot still decode exactly.
func TestValuesDecodeInternsWithoutAliasing(t *testing.T) {
	var vals Values
	buf := AppendMessage(nil, protocol.Message{Kind: protocol.Echo, G: 3, M: "steady-state", K: 4})
	if avg := testing.AllocsPerRun(200, func() {
		if _, _, err := vals.DecodeMessage(buf); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("Values.DecodeMessage of a repeated value allocates %.1f/op, want 0", avg)
	}
	m, _, _ := vals.DecodeMessage(buf)
	for i := range buf {
		buf[i] = 'x'
	}
	if m.M != "steady-state" {
		t.Fatalf("decoded value changed with its input buffer: %q", m.M)
	}
	for i := 0; i < 4*valueSlots; i++ {
		want := protocol.Value(fmt.Sprintf("v%d", i))
		got, _, err := vals.DecodeMessage(AppendMessage(nil, protocol.Message{Kind: protocol.Echo, M: want}))
		if err != nil || got.M != want {
			t.Fatalf("value %q decoded as %q (%v)", want, got.M, err)
		}
	}
}

// TestFrameKindNumbers pins the data-path kind numbers on the wire and
// shows the retired numbers 3–6 (the former control-stream kinds) and
// everything past 7 decode as unknown kinds.
func TestFrameKindNumbers(t *testing.T) {
	if FrameHello != 1 || FrameMessage != 2 || FrameBatch != 7 {
		t.Fatalf("kind numbers moved: hello=%d message=%d batch=%d, want 1, 2, 7",
			FrameHello, FrameMessage, FrameBatch)
	}
	for _, k := range []FrameKind{FrameHello, FrameMessage, FrameBatch} {
		if _, _, err := DecodeFrame(AppendFrame(nil, Frame{Kind: k, From: 1, Epoch: 2})); err != nil {
			t.Errorf("kind %d: %v", k, err)
		}
	}
	for _, k := range []FrameKind{0, 3, 4, 5, 6, 8, 63, 64, 255} {
		b := AppendFrame(nil, Frame{Kind: k, From: 1, Epoch: 2, Payload: []byte{0}})
		if _, _, err := DecodeFrame(b); !errors.Is(err, ErrCorrupt) {
			t.Errorf("kind %d: err = %v, want ErrCorrupt", k, err)
		}
	}
}

// TestFrameEpochIncarnation pins the envelope behaviour the cross-epoch
// replay defense rests on: the epoch (cluster incarnation id) survives
// the round trip exactly for adjacent and extreme incarnations, so a
// receiver comparing f.Epoch against its own incarnation sees precisely
// what the sender stamped — byte-equal frames differing only in epoch
// differ on the wire.
func TestFrameEpochIncarnation(t *testing.T) {
	payload := AppendMessage(nil, protocol.Message{Kind: protocol.Echo, G: 1, M: "m"})
	epochs := []uint64{0, 1, 1 << 40, 1<<40 + 1, ^uint64(0)}
	encodings := make(map[string]uint64)
	for _, e := range epochs {
		b := AppendFrame(nil, Frame{Kind: FrameMessage, From: 2, Epoch: e, Sent: 7, Payload: payload})
		got, _, err := DecodeFrame(b)
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		if got.Epoch != e {
			t.Fatalf("epoch %d decoded as %d", e, got.Epoch)
		}
		if prev, dup := encodings[string(b)]; dup {
			t.Fatalf("epochs %d and %d share an encoding", prev, e)
		}
		encodings[string(b)] = e
	}
}

// TestFrameClaimedSenderIsEnvelopeOnly pins what the forgery defense
// relies on: the claimed sender travels in the frame envelope (From),
// and decoding does not overwrite it from the payload — so a transport
// comparing the envelope against the connection's authenticated
// identity catches a forged claim even when the payload's own From
// field tells a third story.
func TestFrameClaimedSenderIsEnvelopeOnly(t *testing.T) {
	payload := AppendMessage(nil, protocol.Message{Kind: protocol.Support, G: 0, M: "x", From: 5})
	b := AppendFrame(nil, Frame{Kind: FrameMessage, From: 3, Epoch: 1, Sent: 2, Payload: payload})
	f, _, err := DecodeFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if f.From != 3 {
		t.Fatalf("envelope sender %d, want the claimed 3", f.From)
	}
	m, _, err := DecodeMessage(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if m.From != 5 {
		t.Fatalf("payload sender %d, want the encoded 5", m.From)
	}
}

// TestIncarnationEpochRoundTrip pins the envelope property the rolling-
// replacement design rests on: wire epoch ids one incarnation apart
// (epoch base + incarnation counter) survive the codec exactly at every
// magnitude — including the uint64 wrap of a negative epoch base, which
// is what the virtual clusters' zero-time epoch produces — and encode to
// distinct bytes, so a receiver comparing a decoded Epoch against its
// per-peer expectation reliably tells a node's old life from its new
// one.
func TestIncarnationEpochRoundTrip(t *testing.T) {
	payload := AppendMessage(nil, protocol.Message{Kind: protocol.Echo, G: 2, M: "roll", K: 1})
	negBase := int64(-6795364578871) // virtual zero-time epochs wrap a negative base
	bases := []uint64{
		0,               // degenerate base
		1 << 40,         // a plausible unix-nano magnitude
		uint64(negBase), // wrapped negative base
		^uint64(0) - 8,  // near the top, still room for incarnations
	}
	for _, base := range bases {
		var prev []byte
		for inc := uint64(0); inc < 3; inc++ {
			f := Frame{Kind: FrameMessage, From: 4, Epoch: base + inc, Sent: 7, Payload: payload}
			b := AppendFrame(nil, f)
			got, n, err := DecodeFrame(b)
			if err != nil || n != len(b) {
				t.Fatalf("base %d inc %d: decode: n=%d err=%v", base, inc, n, err)
			}
			if got.Epoch != base+inc {
				t.Fatalf("base %d inc %d: epoch %d survived as %d", base, inc, base+inc, got.Epoch)
			}
			if prev != nil && bytes.Equal(b, prev) {
				t.Fatalf("base %d inc %d: adjacent incarnations encode identically", base, inc)
			}
			prev = b
		}
	}
}
