package nettrans

import (
	"testing"
	"time"

	"ssbyz/internal/clock"
	"ssbyz/internal/core"
	"ssbyz/internal/protocol"
	"ssbyz/internal/simnet"
	"ssbyz/internal/simtime"
	"ssbyz/internal/wire"
)

// This file is the coalesced-wire battery: the FrameBatch container and
// the send-side coalescer must change only HOW frames cross the wire,
// never what any node observes. The differential tests pin the batched
// pipeline to the legacy datagram-per-frame one byte for byte on the
// deterministic virtual wire; the white-box tests pin the container's
// receive-side semantics (a corrupt inner frame costs exactly itself).

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
	// COUNT=2, LEN(head), head bytes, then a length prefix declaring 100
	// bytes where none follow: wire.BatchReader yields the head and stops
	// with ErrTruncated.
	bp := append([]byte{2, byte(len(inner))}, inner...)
	bp = append(bp, 100)
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

// batchDiffConds is the attack schedule of the wire differential: byte
// corruption on the faulty node's NIC plus duplication on every link —
// the two classes that stress the coalescer hardest (corrupt inner
// frames riding containers, chaos copies multiplying pending frames).
func batchDiffConds() []simnet.Condition {
	return []simnet.Condition{
		{Kind: simnet.CondCorrupt, From: 0, Until: attackWindow, Nodes: []protocol.NodeID{1}},
		{Kind: simnet.CondDuplicate, From: 0, Until: attackWindow, Copies: 2},
	}
}

// runWireModeCell runs one virtual agreement with the given wire mode
// and returns everything observable: the cluster's stats, batch stats,
// and the full canonical trace.
func runWireModeCell(t *testing.T, legacy bool, seed int64) (Stats, BatchStats, []protocol.TraceEvent) {
	t.Helper()
	pp := protocol.DefaultParams(4)
	pp.D = 50
	c, err := NewCluster(ClusterConfig{
		Params: pp, Tick: time.Millisecond,
		Clock: clock.NewFake(time.Time{}), Seed: seed,
		Conditions:             batchDiffConds(),
		Faulty:                 map[protocol.NodeID]protocol.Node{1: core.NewNode()},
		LegacyDatagramPerFrame: legacy,
	})
	if err != nil {
		t.Fatalf("NewCluster(legacy=%v): %v", legacy, err)
	}
	t.Cleanup(c.Stop)
	budget := time.Duration(pp.DeltaAgr()+20*pp.D) * c.Tick()
	if _, _, err := c.Initiate(0, 0, "wire-diff"); err != nil {
		t.Fatalf("initiate(legacy=%v): %v", legacy, err)
	}
	if done := c.AwaitDecisions(0, "wire-diff", budget); done != len(c.Correct()) {
		t.Fatalf("legacy=%v: decided %d/%d (stats %+v)", legacy, done, len(c.Correct()), c.Stats())
	}
	flushInFlight(c)
	res := c.Result(simtime.Duration(c.NowTicks()) + 1)
	return c.Stats(), c.BatchStats(), res.Rec.Events()
}

// TestBatchedVsLegacyWireVirtualIdentical is the wire differential at
// its strongest: the same seeded virtual cluster under an active attack
// schedule, run once coalesced and once datagram-per-frame, must produce
// the identical full trace — every event, instant for instant — and the
// identical 15-counter Stats vector, while BatchStats proves the two
// runs really took different wire paths.
func TestBatchedVsLegacyWireVirtualIdentical(t *testing.T) {
	for seed := int64(40); seed < 43; seed++ {
		sB, bB, evB := runWireModeCell(t, false, seed)
		sL, bL, evL := runWireModeCell(t, true, seed)
		if bB.BatchesSent == 0 || bB.BatchedFrames == 0 {
			t.Fatalf("seed %d: batched run coalesced nothing: %+v", seed, bB)
		}
		if bL.BatchesSent != 0 || bL.BatchedFrames != 0 {
			t.Fatalf("seed %d: legacy run sent containers: %+v", seed, bL)
		}
		if sB != sL {
			t.Fatalf("seed %d: stats differ:\nbatched: %+v\nlegacy:  %+v", seed, sB, sL)
		}
		if len(evB) != len(evL) {
			t.Fatalf("seed %d: %d trace events (batched) != %d (legacy)", seed, len(evB), len(evL))
		}
		for i := range evB {
			if evB[i] != evL[i] {
				t.Fatalf("seed %d: trace event %d differs:\nbatched: %+v\nlegacy:  %+v", seed, i, evB[i], evL[i])
			}
		}
	}
}

// TestCapturedBatchContainersExpand pins the record half of
// record/replay against the container format: every FrameBatch datagram
// the virtual wire captured must expand through wire.ReadBatch into
// decodable inner frames, and the expansion must account for exactly
// the frames the senders' coalescers reported packing. The duplicate
// condition guarantees multi-frame bursts (chaos copies join the same
// flush), so a clean small cluster that happens never to coalesce
// cannot vacuously pass.
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
			continue
		}
		containers++
		br, err := wire.ReadBatch(f.Payload)
		if err != nil {
			t.Fatalf("captured container does not open: %v", err)
		}
		for {
			raw, ok := br.Next()
			if !ok {
				break
			}
			if _, _, err := wire.DecodeFrame(raw); err != nil {
				t.Fatalf("inner frame does not decode: %v", err)
			}
			innerTotal++
		}
		if err := br.Err(); err != nil {
			t.Fatalf("container iteration: %v", err)
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

// TestLegacyWireFlagLiveCluster pins the off-switch on the wall-clock
// path: a real loopback UDP cluster with coalescing disabled completes
// its agreement with zero containers on the wire.
func TestLegacyWireFlagLiveCluster(t *testing.T) {
	pp := liveParams(4)
	c, err := NewCluster(ClusterConfig{
		Params: pp, Transport: TransportUDP, LegacyDatagramPerFrame: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	if _, _, err := c.Initiate(0, 0, "legacy-live"); err != nil {
		t.Fatalf("Initiate: %v", err)
	}
	if done := c.AwaitDecisions(0, "legacy-live", 10*time.Second); done != pp.N {
		t.Fatalf("decided %d/%d (stats %+v)", done, pp.N, c.Stats())
	}
	if bs := c.BatchStats(); bs.BatchesSent != 0 || bs.BatchedFrames != 0 {
		t.Fatalf("legacy cluster sent containers: %+v", bs)
	}
}
