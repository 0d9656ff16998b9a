package nettrans

import (
	"testing"
	"time"

	"ssbyz/internal/clock"
	"ssbyz/internal/protocol"
	"ssbyz/internal/simnet"
	"ssbyz/internal/wire"
)

// This file is the coalesced-wire battery: the FrameBatch container and
// the send-side coalescer must change only HOW frames cross the wire,
// never what any node observes. TestVirtualWireDigests pins what nodes
// observe on the deterministic virtual wire; the white-box tests here pin
// the container's receive-side semantics (a corrupt inner frame costs
// exactly itself) and the record half of record/replay.

// batchFor wraps the given inner frames (already encoded) into one
// FrameBatch container datagram from the given sender.
func batchFor(nn *NetNode, from protocol.NodeID, inner ...[]byte) []byte {
	var buf []byte
	var ends []int
	for _, f := range inner {
		buf = append(buf, f...)
		ends = append(ends, len(buf))
	}
	return wire.AppendBatch(nil, from, nn.epochID, int64(nn.nowTicks()), buf, ends)
}

// TestBatchDeliversAllInnerFrames pins the happy path of the container:
// one datagram, three admitted messages, one Received count each.
func TestBatchDeliversAllInnerFrames(t *testing.T) {
	nn, stub, s1 := receiverHarness(t)
	now := int64(nn.nowTicks())
	inner := [][]byte{}
	for k := 1; k <= 3; k++ {
		payload := wire.AppendMessage(nil, protocol.Message{Kind: protocol.Echo, G: 0, M: "x", K: k})
		inner = append(inner, wire.AppendFrame(nil, wire.Frame{
			Kind: wire.FrameMessage, From: 1, Epoch: nn.epochID, Sent: now, Payload: payload,
		}))
	}
	inject(t, nn, s1, batchFor(nn, 1, inner...))
	await(t, "batch delivery", func() bool { return stub.count() == 3 })
	if s := nn.Stats(); s.Received != 3 || s.DecodeDrops != 0 {
		t.Errorf("stats: %+v", s)
	}
}

// TestBatchCorruptInnerSparesMates is the container's blast-radius
// contract: a corrupt inner frame costs exactly one decode drop — its
// batch-mates in the same datagram are admitted untouched.
func TestBatchCorruptInnerSparesMates(t *testing.T) {
	nn, stub, s1 := receiverHarness(t)
	now := int64(nn.nowTicks())
	mk := func(k int) []byte {
		payload := wire.AppendMessage(nil, protocol.Message{Kind: protocol.Echo, G: 0, M: "x", K: k})
		return wire.AppendFrame(nil, wire.Frame{
			Kind: wire.FrameMessage, From: 1, Epoch: nn.epochID, Sent: now, Payload: payload,
		})
	}
	bad := mk(2)
	bad[0] ^= 0xff // break the magic: the inner frame no longer decodes
	inject(t, nn, s1, batchFor(nn, 1, mk(1), bad, mk(3)))
	await(t, "mates delivered", func() bool { return stub.count() == 2 })
	if s := nn.Stats(); s.DecodeDrops != 1 || s.Received != 2 {
		t.Errorf("stats after corrupt inner frame: %+v", s)
	}
}

// TestBatchBrokenInnerFramingAdmitsHead pins the container-framing error
// path: a batch whose outer envelope is valid but whose SECOND inner
// length prefix overruns the payload must admit the intact head frame,
// count exactly one decode drop for the broken tail, and never crash.
// A datagram truncated mid-envelope, by contrast, is undecodable as a
// whole: one decode drop, zero deliveries.
func TestBatchBrokenInnerFramingAdmitsHead(t *testing.T) {
	nn, stub, s1 := receiverHarness(t)
	now := int64(nn.nowTicks())
	payload := wire.AppendMessage(nil, protocol.Message{Kind: protocol.Echo, G: 0, M: "x", K: 1})
	inner := wire.AppendFrame(nil, wire.Frame{
		Kind: wire.FrameMessage, From: 1, Epoch: nn.epochID, Sent: now, Payload: payload,
	})
	if len(inner) >= 0x80 {
		t.Fatalf("inner frame unexpectedly large: %d", len(inner))
	}
	// FIRST=0, COUNT=2, STEP=0, LEN(head), head bytes, then STEP=0 and a
	// length prefix declaring 100 bytes where none follow:
	// wire.BatchReader yields the head and stops with ErrTruncated.
	bp := append([]byte{0, 2, 0, byte(len(inner))}, inner...)
	bp = append(bp, 0, 100)
	b := wire.AppendFrame(nil, wire.Frame{
		Kind: wire.FrameBatch, From: 1, Epoch: nn.epochID, Sent: now, Payload: bp,
	})
	inject(t, nn, s1, b)
	await(t, "head admitted", func() bool { return stub.count() == 1 })
	if s := nn.Stats(); s.DecodeDrops != 1 || s.Received != 1 {
		t.Errorf("stats after broken inner framing: %+v", s)
	}
	// Tail-truncating the whole datagram breaks the OUTER envelope LEN:
	// the datagram is one decode drop and nothing inside it is seen.
	whole := batchFor(nn, 1, inner, inner)
	inject(t, nn, s1, whole[:len(whole)-3])
	await(t, "outer drop", func() bool { return nn.Stats().DecodeDrops == 2 })
	if stub.count() != 1 {
		t.Errorf("deliveries = %d, want 1 (truncated datagram delivers nothing)", stub.count())
	}
}

// TestCapturedBatchContainersExpand pins the record half of
// record/replay against the container format: every FrameBatch datagram
// the virtual wire captured must expand through wire.ReadBatch into
// decodable inner frames, and the expansion must account for exactly
// the frames the senders' coalescers reported packing in multi-frame
// containers (a flush of one frame ships in a container of one, which
// BatchStats does not count). The duplicate condition guarantees
// multi-frame bursts (chaos copies join the same flush), so a clean
// small cluster that happens never to coalesce cannot vacuously pass.
func TestCapturedBatchContainersExpand(t *testing.T) {
	pp := protocol.DefaultParams(4)
	pp.D = 50
	c, err := NewCluster(ClusterConfig{
		Params: pp, Tick: time.Millisecond,
		Clock: clock.NewFake(time.Time{}), Seed: 7,
		Conditions: []simnet.Condition{
			{Kind: simnet.CondDuplicate, From: 0, Until: attackWindow, Copies: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	budget := time.Duration(pp.DeltaAgr()+20*pp.D) * c.Tick()
	if _, _, err := c.Initiate(0, 0, "expand"); err != nil {
		t.Fatal(err)
	}
	if done := c.AwaitDecisions(0, "expand", budget); done != pp.N {
		t.Fatalf("decided %d/%d", done, pp.N)
	}
	containers, innerTotal := 0, int64(0)
	for _, cf := range c.Frames() {
		f, _, err := wire.DecodeFrame(cf.Bytes)
		if err != nil {
			t.Fatalf("captured datagram does not decode: %v", err)
		}
		if f.Kind != wire.FrameBatch {
			t.Fatalf("captured a %v datagram: every data datagram is a container", f.Kind)
		}
		br, err := wire.ReadBatch(f.Payload)
		if err != nil {
			t.Fatalf("captured container does not open: %v", err)
		}
		inner := int64(0)
		for {
			raw, ok := br.Next()
			if !ok {
				break
			}
			if _, _, err := wire.DecodeFrame(raw); err != nil {
				t.Fatalf("inner frame does not decode: %v", err)
			}
			inner++
		}
		if err := br.Err(); err != nil {
			t.Fatalf("container iteration: %v", err)
		}
		if inner > 1 {
			containers++
			innerTotal += inner
		}
	}
	bs := c.BatchStats()
	if containers == 0 || int64(containers) != bs.BatchesSent {
		t.Fatalf("captured %d containers, coalescers report %d", containers, bs.BatchesSent)
	}
	if innerTotal != bs.BatchedFrames {
		t.Fatalf("captured containers hold %d inner frames, coalescers report %d", innerTotal, bs.BatchedFrames)
	}
}
