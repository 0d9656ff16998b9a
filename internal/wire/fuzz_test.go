package wire

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"ssbyz/internal/protocol"
)

// The fuzz harness of the codec. `go test` runs every seed below (plus
// anything under testdata/fuzz) as ordinary unit cases — that seeded
// corpus is what CI executes; `go test -fuzz FuzzDecodeFrame` explores
// live. The invariants are the transport's safety contract: decoding
// arbitrary bytes never panics, and anything that decodes cleanly
// re-encodes to a decode-equal value (no lossy acceptance).

// dataFrames returns valid encodings of the data-path frame kinds.
func dataFrames() [][]byte {
	msg := AppendMessage(nil, protocol.Message{Kind: protocol.Ready, G: 2, M: "s⊥", P: 1, K: 3, Aux: -9, From: 5})
	return [][]byte{
		AppendFrame(nil, Frame{Kind: FrameHello, From: 0, Epoch: 1}),
		AppendFrame(nil, Frame{Kind: FrameMessage, From: 1, Epoch: 1 << 62, Sent: 99, Payload: msg}),
		// The incarnation-id envelope under attack: a replayed frame whose
		// epoch was bumped to the next incarnation, and maximal epochs.
		AppendFrame(nil, Frame{Kind: FrameMessage, From: 1, Epoch: (1 << 62) + 1, Sent: 99, Payload: msg}),
		AppendFrame(nil, Frame{Kind: FrameMessage, From: 1, Epoch: ^uint64(0), Sent: -99, Payload: msg}),
	}
}

// retiredFrames returns well-formed envelopes under the retired kind
// numbers 3–6 (the former control-stream kinds), which DecodeFrame must
// reject as unknown.
func retiredFrames() [][]byte {
	ev := AppendTraceEvent(nil, protocol.TraceEvent{Kind: protocol.EvIAccept, Node: 3, RT: 777, Tau: -2, G: 1, M: "m", K: 2, TauG: 5, RTauG: 6, P: 4})
	return [][]byte{
		AppendFrame(nil, Frame{Kind: 3, From: 2, Epoch: 3, Sent: -4, Payload: ev}),
		AppendFrame(nil, Frame{Kind: 4, From: 3, Epoch: 3, Sent: 1000}),
		AppendFrame(nil, Frame{Kind: 5, From: 4, Epoch: 8, Sent: 12, Payload: []byte{0xc6, 0x01, 0xdc, 0x0b, 0x1c}}),
		AppendFrame(nil, Frame{Kind: 6, From: 5, Epoch: 8, Sent: 13, Payload: []byte{6, 10, 8, 0, 2, 1}}),
	}
}

func FuzzDecodeFrame(f *testing.F) {
	for _, b := range append(dataFrames(), retiredFrames()...) {
		f.Add(b)
		f.Add(b[:len(b)/2])                   // truncation
		f.Add(append([]byte{0xff}, b...))     // misaligned garbage
		f.Add(bytes.Repeat([]byte{0x80}, 32)) // overlong varints
	}
	f.Add([]byte{magic0, magic1, Version, byte(FrameMessage)})
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, n, err := DecodeFrame(b)
		if err != nil {
			return
		}
		if n <= 0 || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		// Accepted input must re-encode to something decode-equal.
		re := AppendFrame(nil, fr)
		fr2, n2, err := DecodeFrame(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if n2 != len(re) || fr2.Kind != fr.Kind || fr2.From != fr.From ||
			fr2.Epoch != fr.Epoch || fr2.Sent != fr.Sent || !bytes.Equal(fr2.Payload, fr.Payload) {
			t.Fatalf("re-encode not stable: %+v vs %+v", fr, fr2)
		}
	})
}

func FuzzDecodeMessage(f *testing.F) {
	f.Add(AppendMessage(nil, protocol.Message{Kind: protocol.Initiator, G: 1, M: "v"}))
	f.Add(AppendMessage(nil, protocol.Message{Kind: protocol.EchoPrime, G: -1, M: "", P: 9, K: 1 << 30, Aux: -1, From: 2}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 20))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, n, err := DecodeMessage(b)
		if err != nil {
			return
		}
		if n <= 0 || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		re := AppendMessage(nil, m)
		m2, _, err := DecodeMessage(re)
		if err != nil || m2 != m {
			t.Fatalf("re-encode not stable: %+v vs %+v (%v)", m, m2, err)
		}
	})
}

func FuzzDecodeTraceEvent(f *testing.F) {
	f.Add(AppendTraceEvent(nil, protocol.TraceEvent{Kind: protocol.EvDecide, Node: 0, RT: 1, M: "x"}))
	f.Add(AppendTraceEvent(nil, protocol.TraceEvent{Kind: protocol.EvExpire, Node: 30, RT: -7, Tau: 8, G: 2, K: -3, TauG: 1, RTauG: 2, P: 6}))
	f.Add([]byte{0x01})
	f.Fuzz(func(t *testing.T, b []byte) {
		ev, n, err := DecodeTraceEvent(b)
		if err != nil {
			return
		}
		if n <= 0 || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		re := AppendTraceEvent(nil, ev)
		ev2, _, err := DecodeTraceEvent(re)
		if err != nil || ev2 != ev {
			t.Fatalf("re-encode not stable: %+v vs %+v (%v)", ev, ev2, err)
		}
	})
}

// FuzzMessageFields drives the encoder from raw field values rather than
// raw bytes: any field combination must round-trip byte-exactly.
func FuzzMessageFields(f *testing.F) {
	f.Add(int64(1), int64(0), int64(0), int64(0), int64(0), int64(0), "v")
	f.Add(int64(9), int64(-1), int64(127), int64(1<<40), int64(-(1 << 40)), int64(3), "")
	f.Fuzz(func(t *testing.T, kind, g, p, k, aux, from int64, m string) {
		if len(m) > MaxValueLen {
			return // encoder contract: values fit the wire bound
		}
		msg := protocol.Message{
			Kind: protocol.MsgKind(kind), G: protocol.NodeID(g), M: protocol.Value(m),
			P: protocol.NodeID(p), K: int(k), Aux: int(aux), From: protocol.NodeID(from),
		}
		b := AppendMessage(nil, msg)
		got, n, err := DecodeMessage(b)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if n != len(b) || got != msg {
			t.Fatalf("round trip mismatch: %+v -> %+v", msg, got)
		}
	})
}

// buildBatch coalesces the given frame encodings the way the transport
// does: concatenated into one scratch buffer with end offsets, numbered
// by nums (consecutively from 0 when nums is empty).
func buildBatch(from protocol.NodeID, epoch uint64, sent int64, frames [][]byte, nums ...uint64) []byte {
	var buf []byte
	var ends []int
	for _, fb := range frames {
		buf = append(buf, fb...)
		ends = append(ends, len(buf))
	}
	return AppendBatch(nil, from, epoch, sent, buf, ends, nums...)
}

// FuzzDecodeBatch is fuzz target #5: the coalesced batch-envelope
// decoder. Invariants on arbitrary bytes: no panic, the reader
// terminates within MaxBatchFrames iterations, every yielded inner
// frame lies inside the payload, and a cleanly-read batch re-packs to a
// container whose inner frames are byte-identical — so a frame can
// never silently migrate to a different sender (attribution lives in
// the inner bytes, which round-trip exactly).
func FuzzDecodeBatch(f *testing.F) {
	inner := dataFrames()
	whole := buildBatch(1, 7, 42, inner)
	f.Add(whole)
	f.Add(whole[:len(whole)-3])             // truncation mid-inner-frame
	f.Add(buildBatch(2, 7, 43, inner[:1]))  // single-frame batch
	f.Add(buildBatch(3, 7, 44, [][]byte{})) // zero count: corrupt
	// Numbered containers as the transport ships them: a link deep into
	// its sequence, a chaos copy repeating its predecessor's number, a
	// replay jumping back to an old number, and numbers at the top of
	// the range, where the next one in line wraps.
	f.Add(buildBatch(4, 7, 45, inner, 1<<40))
	f.Add(buildBatch(4, 7, 45, inner, 300, 300, 17, 301))
	f.Add(buildBatch(5, 7, 46, inner[:2], ^uint64(0)-1, ^uint64(0)))
	// A FIRST varint cut short, and one that never terminates.
	f.Add(AppendFrame(nil, Frame{Kind: FrameBatch, From: 1, Epoch: 7, Payload: []byte{0x80}}))
	f.Add(AppendFrame(nil, Frame{Kind: FrameBatch, From: 1, Epoch: 7, Payload: bytes.Repeat([]byte{0x80}, 11)}))
	// Corrupt an inner length prefix deep in the container.
	mangled := append([]byte(nil), whole...)
	mangled[len(mangled)/2] = 0xff
	f.Add(mangled)
	// Oversized batch count prefix on an otherwise plausible envelope.
	f.Add(AppendFrame(nil, Frame{Kind: FrameBatch, From: 1, Epoch: 7,
		Payload: appendUvarint(nil, MaxBatchFrames+1)}))
	f.Add(bytes.Repeat([]byte{0x80}, 40))
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, n, err := DecodeFrame(b)
		if err != nil || fr.Kind != FrameBatch {
			return
		}
		if n <= 0 || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		r, err := ReadBatch(fr.Payload)
		if err != nil {
			return
		}
		var innerCopies [][]byte
		var nums []uint64
		steps := 0
		for {
			fb, ok := r.Next()
			if !ok {
				break
			}
			if steps++; steps > MaxBatchFrames {
				t.Fatalf("reader did not terminate within MaxBatchFrames")
			}
			if len(fb) > len(fr.Payload) {
				t.Fatalf("inner frame larger than payload: %d > %d", len(fb), len(fr.Payload))
			}
			innerCopies = append(innerCopies, append([]byte(nil), fb...))
			nums = append(nums, r.Seq())
		}
		if r.Err() != nil {
			return // container framing broke mid-way; yielded frames stand
		}
		re := buildBatch(fr.From, fr.Epoch, fr.Sent, innerCopies, nums...)
		fr2, _, err := DecodeFrame(re)
		if err != nil {
			t.Fatalf("re-encoded batch does not decode: %v", err)
		}
		r2, err := ReadBatch(fr2.Payload)
		if err != nil {
			t.Fatalf("re-encoded batch does not open: %v", err)
		}
		for i := 0; ; i++ {
			fb, ok := r2.Next()
			if !ok {
				if i != len(innerCopies) {
					t.Fatalf("re-encoded batch yields %d frames, want %d", i, len(innerCopies))
				}
				break
			}
			if !bytes.Equal(fb, innerCopies[i]) {
				t.Fatalf("inner frame %d not byte-stable (sender attribution at risk)", i)
			}
			if r2.Seq() != nums[i] {
				t.Fatalf("inner frame %d renumbered: %d, want %d", i, r2.Seq(), nums[i])
			}
		}
	})
}

// TestBatchAttribution pins the mis-attribution invariant directly: a
// batch built from frames of distinct senders yields each inner frame
// with its own From intact, independent of the container's envelope
// sender.
func TestBatchAttribution(t *testing.T) {
	frames := dataFrames()
	b := buildBatch(99, 5, 1, frames)
	fr, _, err := DecodeFrame(b)
	if err != nil || fr.Kind != FrameBatch || fr.From != 99 {
		t.Fatalf("container decode: %+v, %v", fr, err)
	}
	r, err := ReadBatch(fr.Payload)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		fb, ok := r.Next()
		if !ok {
			if err := r.Err(); err != nil {
				t.Fatal(err)
			}
			if i != len(frames) {
				t.Fatalf("yielded %d frames, want %d", i, len(frames))
			}
			break
		}
		want, _, err := DecodeFrame(frames[i])
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := DecodeFrame(fb)
		if err != nil {
			t.Fatalf("inner frame %d: %v", i, err)
		}
		if got.From != want.From || got.Kind != want.Kind || got.Epoch != want.Epoch {
			t.Fatalf("inner frame %d mis-attributed: got %+v want %+v", i, got, want)
		}
	}
}

// TestBatchCorruptInnerContentSparesMates pins the battery-preserving
// property the transport depends on: flipping a byte *inside* one inner
// frame's bytes (the chaos layer's corruption model) leaves the
// container framing intact, so every other inner frame still decodes.
func TestBatchCorruptInnerContentSparesMates(t *testing.T) {
	frames := dataFrames()
	b := buildBatch(1, 5, 1, frames)
	fr, _, err := DecodeFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	// Locate inner frame #2 within the payload and trash its magic.
	r, _ := ReadBatch(fr.Payload)
	idx := 0
	for {
		fb, ok := r.Next()
		if !ok {
			t.Fatal("batch exhausted before frame 2")
		}
		if idx == 2 {
			fb[0] ^= 0xff // aliases the container bytes
			break
		}
		idx++
	}
	r2, err := ReadBatch(fr.Payload)
	if err != nil {
		t.Fatal(err)
	}
	decoded, dropped := 0, 0
	for {
		fb, ok := r2.Next()
		if !ok {
			break
		}
		if _, _, err := DecodeFrame(fb); err != nil {
			dropped++
		} else {
			decoded++
		}
	}
	if err := r2.Err(); err != nil {
		t.Fatalf("container framing must survive inner content corruption: %v", err)
	}
	if dropped != 1 || decoded != len(frames)-1 {
		t.Fatalf("decoded=%d dropped=%d, want %d/1", decoded, dropped, len(frames)-1)
	}
}

// TestBatchNumbering pins the container's link sequence numbers: a
// consecutive run costs one STEP byte per entry, copies and replays keep
// the number they were given, entries past the given numbers continue
// one past their predecessor, and the numbers wrap at the top of the
// range like the counters they come from.
func TestBatchNumbering(t *testing.T) {
	frames := dataFrames()
	cases := []struct {
		name string
		nums []uint64
		want []uint64
	}{
		{"default", nil, []uint64{0, 1, 2, 3}},
		{"first only", []uint64{1000}, []uint64{1000, 1001, 1002, 1003}},
		{"copy and replay", []uint64{300, 300, 17, 301}, []uint64{300, 300, 17, 301}},
		{"wrap", []uint64{^uint64(0) - 1}, []uint64{^uint64(0) - 1, ^uint64(0), 0, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := buildBatch(1, 5, 1, frames, tc.nums...)
			fr, _, err := DecodeFrame(b)
			if err != nil {
				t.Fatal(err)
			}
			r, err := ReadBatch(fr.Payload)
			if err != nil {
				t.Fatal(err)
			}
			var got []uint64
			for _, ok := r.Next(); ok; _, ok = r.Next() {
				got = append(got, r.Seq())
			}
			if r.Err() != nil || !slices.Equal(got, tc.want) {
				t.Fatalf("numbers %v (err %v), want %v", got, r.Err(), tc.want)
			}
		})
	}
	// A consecutive run pays one STEP byte per entry over the numbering
	// of the first frame.
	plain := buildBatch(1, 5, 1, frames, 0)
	deep := buildBatch(1, 5, 1, frames, 1<<40)
	if extra := len(deep) - len(plain); extra != uvarintLen(1<<40)-1 {
		t.Fatalf("numbering from 2^40 costs %d bytes over numbering from 0, want %d", extra, uvarintLen(1<<40)-1)
	}
}

// TestReadBatchCorruptFirst pins ReadBatch's handling of a damaged FIRST
// field: a varint cut short is truncation, a varint that never
// terminates is corruption, and neither yields a frame.
func TestReadBatchCorruptFirst(t *testing.T) {
	cases := []struct {
		name    string
		payload []byte
		want    error
	}{
		{"empty", nil, ErrTruncated},
		{"truncated first", []byte{0x80}, ErrTruncated},
		{"overlong first", bytes.Repeat([]byte{0x80}, 11), ErrCorrupt},
		{"count missing", []byte{0x05}, ErrTruncated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadBatch(tc.payload); !errors.Is(err, tc.want) {
				t.Fatalf("ReadBatch: %v, want %v", err, tc.want)
			}
		})
	}
}
