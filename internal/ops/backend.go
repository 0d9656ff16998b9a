package ops

import (
	"fmt"

	"ssbyz/internal/core"
	"ssbyz/internal/nettrans"
	"ssbyz/internal/protocol"
	"ssbyz/internal/service"
	"ssbyz/internal/simtime"
	"ssbyz/internal/transient"
)

// NetBackend adapts one live NetNode to the control plane: the
// implementation cmd/ssbyz-node serves. Initiations and fault
// injections run inside the node's event loop (DoWait).
type NetBackend struct {
	NN *nettrans.NetNode
}

var _ NodeBackend = (*NetBackend)(nil)

func (b *NetBackend) ID() protocol.NodeID     { return b.NN.ID() }
func (b *NetBackend) Params() protocol.Params { return b.NN.Params() }
func (b *NetBackend) NowTicks() simtime.Real  { return simtime.Real(b.NN.Now()) }
func (b *NetBackend) Stats() nettrans.Stats   { return b.NN.Stats() }
func (b *NetBackend) Incarnation() uint64     { return b.NN.Incarnation() }
func (b *NetBackend) TraceEvents() []protocol.TraceEvent {
	return b.NN.Recorder().Events()
}

func (b *NetBackend) BumpPeerEpoch(peer protocol.NodeID, incarnation uint64) error {
	return b.NN.BumpPeerEpoch(peer, incarnation)
}

// Initiate starts agreement inside the event loop, subject to the
// IG1–IG3 sending-validity criteria the state machine enforces.
func (b *NetBackend) Initiate(slot int, v protocol.Value) error {
	var err error
	b.NN.DoWait(func(n protocol.Node) {
		_, _, err = service.InitiateFirst(n, []int{slot}, v)
	})
	return err
}

// InjectFault corrupts the RUNNING protocol state in place (POST /fault).
func (b *NetBackend) InjectFault(seed int64, severityPermille, inFlight int) error {
	injected := false
	b.NN.DoWait(func(n protocol.Node) {
		injected = corruptRunning(n, b.NN.Params(), b.NN.Now(), seed, severityPermille, inFlight)
	})
	if !injected {
		return fmt.Errorf("ops: node %d does not run a corruptible core node", b.NN.ID())
	}
	return nil
}

// faultSlot is InjectFault on slot id of an in-process cluster: the
// campaign's OpFault step.
func faultSlot(c *nettrans.Cluster, id protocol.NodeID, seed int64, severityPermille, inFlight int) error {
	injected := false
	c.DoWait(id, func(n protocol.Node) {
		injected = corruptRunning(n, c.Params(), simtime.Local(c.NowTicks()), seed, severityPermille, inFlight)
	})
	if !injected {
		return fmt.Errorf("ops: node %d is down or does not run a corruptible core node", id)
	}
	return nil
}

// corruptRunning is the transient fault, run inside n's event loop:
// arbitrary-state placement plus a phantom mark under the highest
// committee id, which the protocol must sweep within Δstb = 2Δreset. It
// reports false when n is not a core node.
func corruptRunning(n protocol.Node, pp protocol.Params, now simtime.Local, seed int64, severityPermille, inFlight int) bool {
	cn, ok := n.(*core.Node)
	if ok {
		transient.CorruptRunning(cn, pp, transient.Config{
			Seed:     seed,
			Severity: float64(severityPermille) / 1000,
			InFlight: inFlight,
			Marks:    []protocol.NodeID{protocol.NodeID(pp.N - 1)},
		}, now)
	}
	return ok
}
