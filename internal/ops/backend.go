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
// injections run inside the node's event loop (DoWait), exactly like
// the pre-ops control-socket paths they subsume.
type NetBackend struct {
	NN *nettrans.NetNode
}

var _ NodeBackend = (*NetBackend)(nil)

func (b *NetBackend) ID() protocol.NodeID     { return b.NN.ID() }
func (b *NetBackend) Params() protocol.Params { return b.NN.Params() }
func (b *NetBackend) NowTicks() simtime.Real  { return simtime.Real(b.NN.Now()) }
func (b *NetBackend) Stats() nettrans.Stats   { return b.NN.Stats() }
func (b *NetBackend) Incarnation() uint64     { return b.NN.Incarnation() }

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

// InjectFault corrupts the RUNNING protocol state in place — the REST
// form of the FrameFault order: arbitrary-state placement plus a
// phantom mark under the highest committee id, whose decay the daemon's
// Δstb watcher observes.
func (b *NetBackend) InjectFault(seed int64, severityPermille, inFlight int) error {
	pp := b.NN.Params()
	markG := protocol.NodeID(pp.N - 1)
	injected := false
	b.NN.DoWait(func(n protocol.Node) {
		cn, ok := n.(*core.Node)
		if !ok {
			return
		}
		transient.CorruptRunning(cn, pp, transient.Config{
			Seed:     seed,
			Severity: float64(severityPermille) / 1000,
			InFlight: inFlight,
			Marks:    []protocol.NodeID{markG},
		}, b.NN.Now())
		injected = true
	})
	if !injected {
		return fmt.Errorf("ops: node %d does not run a corruptible core node", b.NN.ID())
	}
	return nil
}
