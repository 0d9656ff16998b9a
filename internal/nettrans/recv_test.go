package nettrans

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ssbyz/internal/clock"
	"ssbyz/internal/protocol"
	"ssbyz/internal/wire"
)

// Allocation gate of the receive path (DESIGN.md §11): ingest, admit,
// the anti-replay window, mailbox and handler must not allocate per
// delivered frame once a cluster is warm. The gate counts allocations, not time, so it runs
// on a virtual-time cluster and is exact on any host.

// maxAllocsPerFrame is the gate: at most one allocation per hundred
// delivered frames, the residue being the virtual wire's per-tick and
// per-datagram bookkeeping.
const maxAllocsPerFrame = 0.01

// allocValues are the values the measured traffic carries. An agreement
// carries one value in all of its ~12.6 k frames, so the values repeat
// here too; a value a node has not seen recently costs one string.
var allocValues = []protocol.Value{"r0g0", "r0g1", "r0g2", "r0g3"}

// allocCluster boots an n = 4 NullNode cluster on a fake clock with a
// one-tick wire delay and a 20-tick d, so a measurement spans many d:
// every ten flood runs, every twenty ingest runs.
func allocCluster(t *testing.T) (*Cluster, *clock.Fake) {
	t.Helper()
	pp := protocol.DefaultParams(4)
	pp.D = 20
	fake := clock.NewFake(time.Time{})
	c, err := NewCluster(ClusterConfig{
		Params: pp, Tick: 100 * time.Microsecond, Clock: fake,
		DelayMin: 1, DelayMax: 1,
		NewNode: func() protocol.Node { return NullNode{} },
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	t.Cleanup(c.Stop)
	return c, fake
}

// measureAllocsPerFrame warms run up for at least three windows of d,
// then reports testing.AllocsPerRun's count per delivered frame, the
// frames counted from the cluster's Stats().Received.
func measureAllocsPerFrame(t *testing.T, c *Cluster, run func()) (perRun, framesPerRun, perFrame float64) {
	t.Helper()
	for i := 0; i < 60; i++ {
		run()
	}
	const runs = 100
	before := c.Stats().Received
	perRun = testing.AllocsPerRun(runs, run)
	// AllocsPerRun calls run once more, unmeasured, before it counts.
	framesPerRun = float64(c.Stats().Received-before) / (runs + 1)
	if framesPerRun == 0 {
		t.Fatal("no frame was delivered")
	}
	return perRun, framesPerRun, perRun / framesPerRun
}

// TestReceivePathAllocsPerFrame is the tier-1 allocation gate. Two
// shapes cover the two receive entry points:
//
//   - flood: the wire-pump shape. Node 0 broadcasts 512 messages per run
//     (one full container per peer); the virtual wire unpacks them and
//     every node admits each frame alone (handleFrame).
//   - ingest: the live-agree shape. 64 containers of 9 frames (live
//     agreements average 8.6 per container) go straight into node 1's
//     handleBatch, as a socket ingest shard hands them over.
func TestReceivePathAllocsPerFrame(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	t.Run("flood", func(t *testing.T) {
		c, fake := allocCluster(t)
		src := c.nodes[0]
		k := 0
		burst := func() {
			for i := 0; i < pumpChunk; i++ {
				k++
				src.Broadcast(protocol.Message{Kind: protocol.Initiator, G: 0, K: k,
					M: allocValues[k%len(allocValues)]})
			}
		}
		run := func() {
			src.mbox.Enqueue(burst)
			fake.Advance(2 * c.Tick())
		}
		perRun, frames, perFrame := measureAllocsPerFrame(t, c, run)
		t.Logf("flood: %.2f allocs per run, %.0f frames per run: %.5f allocs per frame", perRun, frames, perFrame)
		if perFrame > maxAllocsPerFrame {
			t.Errorf("flood: %.5f allocs per delivered frame, gate %v", perFrame, maxAllocsPerFrame)
		}
	})
	t.Run("ingest", func(t *testing.T) {
		c, fake := allocCluster(t)
		dst := c.nodes[1]
		const from, containers, perContainer = 2, 64, 9
		var payload, inner, dg []byte
		var ends []int
		var vals wire.Values // the ingest shard's own value cache
		k := 1 << 30         // clear of anything node 2 itself sends
		var num uint64       // node 2's link number towards node 1
		run := func() {
			now := int64(dst.nowTicks())
			epoch := dst.expectedEpoch(from)
			for b := 0; b < containers; b++ {
				inner, ends = inner[:0], ends[:0]
				for i := 0; i < perContainer; i++ {
					k++
					payload = wire.AppendMessage(payload[:0], protocol.Message{Kind: protocol.Support,
						G: 0, K: k, M: allocValues[k%len(allocValues)]})
					inner = wire.AppendFrame(inner, wire.Frame{Kind: wire.FrameMessage,
						From: from, Epoch: epoch, Sent: now, Payload: payload})
					ends = append(ends, len(inner))
				}
				dg = wire.AppendBatch(dg[:0], from, epoch, now, inner, ends, num)
				num += perContainer
				f, _, err := wire.DecodeFrame(dg)
				if err != nil {
					t.Fatalf("DecodeFrame: %v", err)
				}
				dst.handleBatch(f, true, &vals)
			}
			// Advance waits for the mailbox to drain, then moves one tick.
			fake.Advance(c.Tick())
		}
		perRun, frames, perFrame := measureAllocsPerFrame(t, c, run)
		t.Logf("ingest: %.2f allocs per run, %.0f frames per run: %.5f allocs per frame", perRun, frames, perFrame)
		if perFrame > maxAllocsPerFrame {
			t.Errorf("ingest: %.5f allocs per delivered frame, gate %v", perFrame, maxAllocsPerFrame)
		}
	})
}

// checkNode verifies every delivered message against the checksum its
// sender stamped into Aux, so a message read from a slice that was
// recycled under it shows up as a count, with or without -race.
type checkNode struct {
	NullNode
	got, bad atomic.Int64
}

func recycleChecksum(from protocol.NodeID, k int) int { return k*31 + int(from) }

func (n *checkNode) OnMessage(from protocol.NodeID, m protocol.Message) {
	n.got.Add(1)
	if m.From != from || m.Aux != recycleChecksum(from, m.K) || m.M != allocValues[m.K%len(allocValues)] {
		n.bad.Add(1)
	}
}

// TestInboundRecycleRace runs node 0's recycling of inbound batches
// against its own event loop: four goroutines, standing in for ingest
// shards, push containers into handleBatch while the mailbox drains
// them, so batches go back to the free list and out again while other
// batches are being delivered. Each goroutine ingests its own sender, as
// a shard owns the senders whose addresses map to it, so each sender's
// anti-replay window has one goroutine. Every message must arrive once
// and intact; under -race a batch refilled before its delivery returned,
// or a window touched by two goroutines, is a reported race.
func TestInboundRecycleRace(t *testing.T) {
	pp := protocol.DefaultParams(5)
	pp.D = 20
	fake := clock.NewFake(time.Time{})
	var nodes []*checkNode
	c, err := NewCluster(ClusterConfig{
		Params: pp, Tick: 100 * time.Microsecond, Clock: fake,
		NewNode: func() protocol.Node {
			n := &checkNode{}
			nodes = append(nodes, n)
			return n
		},
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Stop()
	dst, chk := c.nodes[0], nodes[0]
	const shards, containers, perContainer = 4, 300, 9
	now := int64(dst.nowTicks())
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		from := protocol.NodeID(1 + s)
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			epoch := dst.expectedEpoch(from)
			var vals wire.Values
			var payload, inner, dg []byte
			var ends []int
			for b := 0; b < containers; b++ {
				inner, ends = inner[:0], ends[:0]
				for i := 0; i < perContainer; i++ {
					k := s<<20 | b*perContainer + i
					payload = wire.AppendMessage(payload[:0], protocol.Message{Kind: protocol.Support,
						K: k, Aux: recycleChecksum(from, k), M: allocValues[k%len(allocValues)]})
					inner = wire.AppendFrame(inner, wire.Frame{Kind: wire.FrameMessage,
						From: from, Epoch: epoch, Sent: now, Payload: payload})
					ends = append(ends, len(inner))
				}
				dg = wire.AppendBatch(dg[:0], from, epoch, now, inner, ends, uint64(b*perContainer))
				f, _, err := wire.DecodeFrame(dg)
				if err != nil {
					t.Errorf("DecodeFrame: %v", err)
					return
				}
				dst.handleBatch(f, true, &vals)
			}
		}(s)
	}
	wg.Wait()
	fake.WaitIdle() // the mailbox has drained
	if want := int64(shards * containers * perContainer); chk.got.Load() != want || chk.bad.Load() != 0 {
		t.Fatalf("delivered %d messages, %d of them damaged; want %d intact", chk.got.Load(), chk.bad.Load(), want)
	}
	if s := dst.Stats(); s.Received != chk.got.Load() {
		t.Fatalf("Stats().Received = %d, delivered %d", s.Received, chk.got.Load())
	}
}
