package nettrans

import (
	"fmt"
	"net"
	"sort"

	"ssbyz/internal/core"
	"ssbyz/internal/protocol"
)

// This file is the cluster's live-membership surface: the operations the
// orchestrator (cmd/ssbyz-cluster, internal/ops) composes into
// boot→scale→roll→drain campaigns. The paper's self-stabilization claim
// is what makes them safe to offer at all — a stopped-and-replaced node
// is indistinguishable from a node recovering from a transient fault, so
// the protocol re-converges within Δstb = 2Δreset without any handshake.
// What the membership layer must add on its own is replay protection: a
// rolled node's new life must not accept (or be impersonated by) frames
// from its previous life, which is the incarnation half of the wire
// epoch id (NodeConfig.Incarnation, NetNode.BumpPeerEpoch).

// StartNode boots the correct-node slot id, which must currently be down
// — listed in ClusterConfig.Absent, or stopped earlier via StopNode. On
// the wall-clock path it reuses the slot's parked socket (still bound
// from cluster construction) or re-binds the slot's original address; on
// the virtual path it registers a fresh endpoint on the in-memory wire.
// The node boots at the cluster's current incarnation table, so a
// StartNode that follows a RollNode comes up in the new epoch.
func (c *Cluster) StartNode(id protocol.NodeID) error {
	c.mu.Lock()
	if id < 0 || int(id) >= len(c.nodes) {
		c.mu.Unlock()
		return fmt.Errorf("nettrans: start of node %d outside [0,%d)", id, len(c.nodes))
	}
	if c.nodes[id] != nil {
		c.mu.Unlock()
		return fmt.Errorf("nettrans: node %d is already running", id)
	}
	if _, isFaulty := c.cfg.Faulty[id]; isFaulty {
		c.mu.Unlock()
		return fmt.Errorf("nettrans: node %d is a faulty slot and cannot be started", id)
	}
	machine := c.newMachineLocked()
	cfgN := c.nodeConfig(id)
	sock := c.parked[id]
	delete(c.parked, id)
	if !containsID(c.correct, id) {
		c.correct = append(c.correct, id)
		sort.Slice(c.correct, func(i, j int) bool { return c.correct[i] < c.correct[j] })
	}
	c.mu.Unlock()

	var nn *NetNode
	var err error
	if c.wire != nil {
		nn, err = startNode(cfgN, machine, func(nn *NetNode) (transport, error) {
			return &memTransport{w: c.wire, id: id}, nil
		})
	} else {
		if sock == nil {
			// The slot's previous life closed its socket on Stop; the
			// address is part of the peer table, so rebind exactly it.
			sock, err = ListenSocket(c.cfg.Transport, c.peers[id])
			if err != nil {
				return fmt.Errorf("nettrans: rebind node %d at %s: %w", id, c.peers[id], err)
			}
		}
		nn, err = StartWith(cfgN, sock, machine)
	}
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.nodes[id] = nn
	c.mu.Unlock()
	if c.wire != nil {
		c.wire.mu.Lock()
		c.wire.nodes[id] = nn
		c.wire.mu.Unlock()
		// Serialize the boot exactly as cluster construction does: the
		// node's Start and the timers it registers drain fully before the
		// driver advances time again, keeping the run deterministic.
		c.fake.WaitIdle()
	}
	return nil
}

// StopNode takes the running node id off the air: its endpoint leaves
// the wire (virtual) or its socket closes (wall), in-flight frames to it
// vanish, and the model reads the silence as a crash fault — so at most
// f slots may be down at once, which is the orchestrator's contract to
// keep, not this method's. The slot can be rebooted with StartNode.
func (c *Cluster) StopNode(id protocol.NodeID) error {
	c.mu.Lock()
	if id < 0 || int(id) >= len(c.nodes) || c.nodes[id] == nil {
		c.mu.Unlock()
		return fmt.Errorf("nettrans: stop of node %d, which is not running", id)
	}
	nn := c.nodes[id]
	c.nodes[id] = nil
	c.mu.Unlock()
	if c.wire != nil {
		c.wire.mu.Lock()
		c.wire.nodes[id] = nil
		c.wire.mu.Unlock()
	}
	nn.Stop()
	return nil
}

// RollNode replaces node id: stop, advance its incarnation, tell every
// running peer to expect the new epoch (old-incarnation frames then
// count as epoch_drops — the replay-rejection proof the tests pin), and
// boot the replacement. The replacement converges like any node
// recovering from a transient, i.e. within Δstb of its boot; the
// orchestrator asserts exactly that after every roll. It returns the new
// incarnation number.
func (c *Cluster) RollNode(id protocol.NodeID) (uint64, error) {
	if err := c.StopNode(id); err != nil {
		return 0, err
	}
	c.mu.Lock()
	c.incarnations[id]++
	inc := c.incarnations[id]
	c.mu.Unlock()
	if err := c.bumpRunningPeers(id, inc); err != nil {
		return 0, err
	}
	if err := c.StartNode(id); err != nil {
		return 0, err
	}
	return inc, nil
}

// BumpPeerEpoch records that slot peer is (about to be) at the given
// incarnation and propagates the expectation to every running node.
// Moving backwards is refused with ErrEpochSkew — the point of the
// incarnation id is that an old life can never be readmitted.
func (c *Cluster) BumpPeerEpoch(peer protocol.NodeID, incarnation uint64) error {
	c.mu.Lock()
	if peer < 0 || int(peer) >= len(c.incarnations) {
		c.mu.Unlock()
		return fmt.Errorf("%w: bump of node %d outside [0,%d)", ErrEpochSkew, peer, len(c.incarnations))
	}
	if incarnation < c.incarnations[peer] {
		c.mu.Unlock()
		return fmt.Errorf("%w: node %d cannot move back from incarnation %d to %d",
			ErrEpochSkew, peer, c.incarnations[peer], incarnation)
	}
	c.incarnations[peer] = incarnation
	c.mu.Unlock()
	return c.bumpRunningPeers(peer, incarnation)
}

// bumpRunningPeers pushes peer's incarnation into every running node's
// expected-epoch table.
func (c *Cluster) bumpRunningPeers(peer protocol.NodeID, incarnation uint64) error {
	c.mu.Lock()
	nodes := append([]*NetNode(nil), c.nodes...)
	c.mu.Unlock()
	for _, nn := range nodes {
		if nn == nil {
			continue
		}
		if err := nn.BumpPeerEpoch(peer, incarnation); err != nil {
			return err
		}
	}
	return nil
}

// WireEpochID returns the wire epoch id a node at the given incarnation
// stamps on its frames: the cluster epoch base plus the incarnation.
// The campaign's replay probe uses it to forge a frame from a rolled
// node's previous life.
func (c *Cluster) WireEpochID(incarnation uint64) uint64 {
	return uint64(c.epoch.UnixNano()) + incarnation
}

// Incarnations returns a snapshot of every slot's current incarnation.
func (c *Cluster) Incarnations() []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]uint64(nil), c.incarnations...)
}

// Running reports whether slot id currently runs a node.
func (c *Cluster) Running(id protocol.NodeID) bool {
	return c.node(id) != nil
}

// InjectFrame delivers one raw encoded wire datagram to node to as if
// sent by from — the campaign's replay probe uses it to present a
// container stamped with a rolled node's old incarnation and assert the
// receive pipeline rejects it (epoch_drops). On the virtual path the
// datagram joins the deterministic delivery schedule like any other
// send; on the wall path it is written to to's UDP socket from an
// anonymous source (the epoch check sits before source authentication
// in the acceptance pipeline, so the probe exercises exactly the
// replay-rejection step).
func (c *Cluster) InjectFrame(from, to protocol.NodeID, raw []byte) error {
	if to < 0 || int(to) >= len(c.peers) {
		return fmt.Errorf("nettrans: inject to node %d outside [0,%d)", to, len(c.peers))
	}
	if c.wire != nil {
		cp := append([]byte(nil), raw...)
		c.wire.mu.Lock()
		c.wire.carryLocked(from, to, cp)
		c.wire.mu.Unlock()
		return nil
	}
	if c.cfg.Transport != TransportUDP {
		return fmt.Errorf("nettrans: frame injection needs the UDP transport, not %q", c.cfg.Transport)
	}
	conn, err := net.Dial("udp", c.peers[to])
	if err != nil {
		return err
	}
	defer conn.Close()
	_, err = conn.Write(raw)
	return err
}

// node returns the live NetNode at slot id, nil when down or out of
// range.
func (c *Cluster) node(id protocol.NodeID) *NetNode {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id < 0 || int(id) >= len(c.nodes) {
		return nil
	}
	return c.nodes[id]
}

// newMachineLocked builds one correct state machine; c.mu must be held.
func (c *Cluster) newMachineLocked() protocol.Node {
	if c.cfg.NewNode != nil {
		return c.cfg.NewNode()
	}
	return core.NewNode()
}

func containsID(ids []protocol.NodeID, id protocol.NodeID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}
