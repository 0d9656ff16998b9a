package nettrans

import (
	"strconv"
	"time"

	"ssbyz/internal/protocol"
)

// Transport throughput measurement: flood a wall-clock cluster with
// broadcasts from inside one node's event loop and count what the other
// ends accept. This is the instrument behind BenchmarkTransportSendRecv
// and the benchmark's wire-pump workload — it measures the transport
// stack (encode, coalesce, syscalls, receive shards, decode, the
// anti-replay window, delivery), with the protocol state machines
// stubbed out by NullNode.

// NullNode is a no-op protocol.Node: it acknowledges nothing and sends
// nothing. Throughput runs install it via ClusterConfig.NewNode so the
// pump measures the transport, not the agreement protocol.
type NullNode struct{}

func (NullNode) Start(protocol.Runtime)                      {}
func (NullNode) OnMessage(protocol.NodeID, protocol.Message) {}
func (NullNode) OnTimer(protocol.TimerTag)                   {}

// PumpResult is one throughput run's outcome.
type PumpResult struct {
	// Sent counts messages handed to the transport (count × n for a
	// broadcast pump: every broadcast is n point-to-point sends).
	Sent int64
	// Received counts messages accepted and delivered across all nodes;
	// the shortfall against Sent is genuine datagram loss under overload.
	Received int64
	// Elapsed is the wall-clock span from the first send to the last
	// observed delivery.
	Elapsed time.Duration
}

// MsgsPerSec is the aggregate delivered-message rate.
func (p PumpResult) MsgsPerSec() float64 {
	if p.Elapsed <= 0 {
		return 0
	}
	return float64(p.Received) / p.Elapsed.Seconds()
}

// pumpChunk is how many broadcasts one event-loop closure issues: equal
// to wire.MaxBatchFrames so the coalescer packs full containers with no
// sub-batch residue between chunks.
const pumpChunk = 512

// Pump floods the cluster with count broadcasts from node `from`,
// issued inside its event loop in chunks so the coalescer packs each
// chunk into one container per peer. Every message body is distinct, so
// the flood's delivered count means the same whatever the receivers
// suppress as duplicates. It returns once deliveries plateau or the
// timeout passes. Wall-clock clusters only.
func (c *Cluster) Pump(from protocol.NodeID, count int, timeout time.Duration) PumpResult {
	nn := c.nodes[from]
	if nn == nil || c.fake != nil {
		return PumpResult{}
	}
	base := c.Stats()
	start := time.Now()
	var scratch []byte
	for lo := 0; lo < count; lo += pumpChunk {
		lo, hi := lo, lo+pumpChunk
		if hi > count {
			hi = count
		}
		nn.mbox.Enqueue(func() {
			for i := lo; i < hi; i++ {
				scratch = strconv.AppendInt(scratch[:0], int64(i), 10)
				nn.Broadcast(protocol.Message{
					Kind: protocol.Initiator,
					G:    from,
					M:    protocol.Value(scratch),
				})
			}
		})
	}
	// Deliveries plateau when the pipeline has drained (or stalled: under
	// deliberate overload the kernel drops the excess, which is the loss
	// the protocol tolerates). Elapsed runs to the last observed change,
	// excluding the settle window itself.
	deadline := start.Add(timeout)
	last := int64(-1)
	lastChange := start
	const settle = 150 * time.Millisecond
	for {
		cur := c.Stats().Received - base.Received
		now := time.Now()
		if cur != last {
			last, lastChange = cur, now
		} else if cur > 0 && now.Sub(lastChange) > settle {
			break
		}
		if now.After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	s := c.Stats()
	return PumpResult{
		Sent:     s.Sent - base.Sent,
		Received: s.Received - base.Received,
		Elapsed:  lastChange.Sub(start),
	}
}
