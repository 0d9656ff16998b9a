package nettrans

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"ssbyz/internal/clock"
	"ssbyz/internal/protocol"
	"ssbyz/internal/simtime"
	"ssbyz/internal/wire"
)

// oldIncarnationProbe forges the replay probe: a protocol frame stamped
// with node from's PREVIOUS incarnation epoch id. After a roll, every
// peer must reject it at the first acceptance-pipeline step
// (EpochDrops) — the proof that a rolled node's old life cannot be
// replayed into its new one.
func oldIncarnationProbe(c *Cluster, from protocol.NodeID, oldInc uint64) []byte {
	return wire.AppendFrame(nil, wire.Frame{
		Kind:  wire.FrameMessage,
		From:  from,
		Epoch: c.WireEpochID(oldInc),
		Sent:  int64(c.NowTicks()),
		Payload: wire.AppendMessage(nil, protocol.Message{
			Kind: protocol.Initiator, G: from, From: from, M: "stale",
		}),
	})
}

// TestVirtualRollReplayRejected drives the membership tentpole end to
// end in virtual time: agree, roll a node (stop → bump incarnation →
// restart), assert every running peer rejects a frame replayed from the
// node's previous incarnation, and assert the rolled node takes part in
// a fresh agreement — the self-stabilization claim that makes rolling
// replacement safe (DESIGN.md §12).
func TestVirtualRollReplayRejected(t *testing.T) {
	pp := virtualParams(7)
	clk := clock.NewFake(time.Time{})
	c, err := NewCluster(ClusterConfig{
		Params: pp,
		Tick:   100 * time.Microsecond,
		Clock:  clk,
		Seed:   11,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Stop()
	budget := time.Duration(pp.DeltaStb()) * c.Tick()

	if _, _, err := c.Initiate(0, 0, "pre-roll"); err != nil {
		t.Fatalf("Initiate: %v", err)
	}
	if done := c.AwaitDecisions(0, "pre-roll", budget); done != 7 {
		t.Fatalf("pre-roll: %d/7 decided", done)
	}

	const rolled = protocol.NodeID(3)
	inc, err := c.RollNode(rolled)
	if err != nil {
		t.Fatalf("RollNode: %v", err)
	}
	if inc != 1 {
		t.Fatalf("RollNode incarnation = %d, want 1", inc)
	}
	if got := c.Incarnations()[rolled]; got != 1 {
		t.Fatalf("Incarnations[%d] = %d, want 1", rolled, got)
	}

	// Replay probe: a frame from incarnation 0 of the rolled node, offered
	// to every running peer. The epoch check sits first in the acceptance
	// pipeline, so each peer counts exactly one EpochDrop for it.
	probe := oldIncarnationProbe(c, rolled, inc-1)
	before := make(map[protocol.NodeID]int64)
	for _, id := range c.Correct() {
		if id == rolled {
			continue
		}
		before[id] = c.NodeStats(id).EpochDrops
		if err := c.InjectFrame(rolled, id, probe); err != nil {
			t.Fatalf("InjectFrame to %d: %v", id, err)
		}
	}
	c.StepUntil(func() bool { return false }, simtime.Duration(c.NowTicks())+pp.D)
	for id, was := range before {
		if got := c.NodeStats(id).EpochDrops; got <= was {
			t.Errorf("node %d: EpochDrops = %d after replay probe, want > %d", id, got, was)
		}
	}

	// The replacement converges like a node recovering from a transient:
	// a fresh agreement must reach all 7 correct slots, rolled one
	// included, within the Δstb budget.
	if _, _, err := c.Initiate(1, 0, "post-roll"); err != nil {
		t.Fatalf("post-roll Initiate: %v", err)
	}
	if done := c.AwaitDecisions(1, "post-roll", budget); done != 7 {
		t.Fatalf("post-roll: %d/7 decided (rolled node did not re-stabilize)", done)
	}
}

// TestAbsentSlotScaleUp boots a cluster with one slot absent (the model
// reads it as crash-faulty), agrees without it, then scales up via
// StartNode and requires the newcomer to join the next agreement.
func TestAbsentSlotScaleUp(t *testing.T) {
	pp := virtualParams(7)
	clk := clock.NewFake(time.Time{})
	c, err := NewCluster(ClusterConfig{
		Params: pp,
		Tick:   100 * time.Microsecond,
		Clock:  clk,
		Seed:   5,
		Absent: []protocol.NodeID{6},
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Stop()
	budget := time.Duration(pp.DeltaStb()) * c.Tick()

	if len(c.Correct()) != 6 || c.Running(6) {
		t.Fatalf("absent slot 6 should not be running: correct=%v", c.Correct())
	}
	if _, _, err := c.Initiate(0, 0, "six"); err != nil {
		t.Fatalf("Initiate: %v", err)
	}
	if done := c.AwaitDecisions(0, "six", budget); done != 6 {
		t.Fatalf("absent phase: %d/6 decided", done)
	}

	if err := c.StartNode(6); err != nil {
		t.Fatalf("StartNode: %v", err)
	}
	if len(c.Correct()) != 7 || !c.Running(6) {
		t.Fatalf("slot 6 should be running after scale-up: correct=%v", c.Correct())
	}
	if _, _, err := c.Initiate(1, 0, "seven"); err != nil {
		t.Fatalf("Initiate: %v", err)
	}
	if done := c.AwaitDecisions(1, "seven", budget); done != 7 {
		t.Fatalf("scale-up phase: %d/7 decided", done)
	}
}

// TestRollCampaignDeterministic replays the same roll campaign twice on
// one seed and requires byte-identical wire records — live membership
// must not cost the virtual path its reproducibility.
func TestRollCampaignDeterministic(t *testing.T) {
	run := func() []byte {
		pp := virtualParams(4)
		clk := clock.NewFake(time.Time{})
		c, err := NewCluster(ClusterConfig{
			Params: pp,
			Tick:   100 * time.Microsecond,
			Clock:  clk,
			Seed:   21,
		})
		if err != nil {
			t.Fatalf("NewCluster: %v", err)
		}
		defer c.Stop()
		budget := time.Duration(pp.DeltaStb()) * c.Tick()
		if _, _, err := c.Initiate(0, 0, "a"); err != nil {
			t.Fatalf("Initiate: %v", err)
		}
		c.AwaitDecisions(0, "a", budget)
		if _, err := c.RollNode(2); err != nil {
			t.Fatalf("RollNode: %v", err)
		}
		if _, _, err := c.Initiate(1, 0, "b"); err != nil {
			t.Fatalf("Initiate: %v", err)
		}
		if done := c.AwaitDecisions(1, "b", budget); done != 4 {
			t.Fatalf("post-roll: %d/4 decided", done)
		}
		var blob []byte
		for _, f := range c.Frames() {
			blob = append(blob, byte(f.From), byte(f.To))
			blob = append(blob, f.Bytes...)
		}
		return blob
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Fatalf("roll campaign diverged across identical runs: %d vs %d record bytes", len(a), len(b))
	}
}

// TestMembershipSentinelErrors pins the errors.Is surface of the
// membership layer: backwards incarnation moves and out-of-range bumps
// are ErrEpochSkew, bad manifests are ErrBadManifest.
func TestMembershipSentinelErrors(t *testing.T) {
	pp := virtualParams(4)
	clk := clock.NewFake(time.Time{})
	c, err := NewCluster(ClusterConfig{
		Params: pp,
		Tick:   100 * time.Microsecond,
		Clock:  clk,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Stop()

	if _, err := c.RollNode(3); err != nil {
		t.Fatalf("RollNode: %v", err)
	}
	if err := c.BumpPeerEpoch(3, 0); !errors.Is(err, ErrEpochSkew) {
		t.Errorf("backwards bump: got %v, want ErrEpochSkew", err)
	}
	if err := c.BumpPeerEpoch(99, 1); !errors.Is(err, ErrEpochSkew) {
		t.Errorf("out-of-range bump: got %v, want ErrEpochSkew", err)
	}
	if err := c.BumpPeerEpoch(3, 2); err != nil {
		t.Errorf("forward bump: %v", err)
	}

	bad := Manifest{N: 4, D: 50, Nodes: []string{"a", "b", "c"}, EpochUnixNano: 1}
	if err := bad.Validate(); !errors.Is(err, ErrBadManifest) {
		t.Errorf("short node list: got %v, want ErrBadManifest", err)
	}
	if _, err := ParseManifest([]byte(`{"n":4,"d":50}`)); !errors.Is(err, ErrBadManifest) {
		t.Errorf("ParseManifest: got %v, want ErrBadManifest", err)
	}

	// Membership bookkeeping refusals (plain errors, not sentinels).
	if err := c.StartNode(0); err == nil {
		t.Error("StartNode of a running node succeeded")
	}
	if err := c.StopNode(99); err == nil {
		t.Error("StopNode out of range succeeded")
	}
	if _, err := NewCluster(ClusterConfig{
		Params: pp, Clock: clock.NewFake(time.Time{}),
		Absent: []protocol.NodeID{1, 2},
	}); err == nil {
		t.Error("two absent slots with f=1 accepted")
	}
}

// TestWallRollEpochDrops is the real-socket half of the replay-rejection
// proof: over loopback UDP, roll a node and require (a) every peer to
// count an EpochDrop for the old-incarnation probe and (b) a fresh
// agreement to reach all nodes, the rebooted one included.
func TestWallRollEpochDrops(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-ms live run; skipped in -short")
	}
	pp := protocol.DefaultParams(4)
	pp.D = 250
	c, err := NewCluster(ClusterConfig{Params: pp, Tick: 100 * time.Microsecond})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Stop()

	if _, _, err := c.Initiate(0, 0, "pre-roll"); err != nil {
		t.Fatalf("Initiate: %v", err)
	}
	if done := c.AwaitDecisions(0, "pre-roll", 5*time.Second); done != 4 {
		t.Fatalf("pre-roll: %d/4 decided", done)
	}

	const rolled = protocol.NodeID(2)
	inc, err := c.RollNode(rolled)
	if err != nil {
		t.Fatalf("RollNode: %v", err)
	}
	probe := oldIncarnationProbe(c, rolled, inc-1)
	for _, id := range c.Correct() {
		if id == rolled {
			continue
		}
		if err := c.InjectFrame(rolled, id, probe); err != nil {
			t.Fatalf("InjectFrame to %d: %v", id, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		dropped := 0
		for _, id := range c.Correct() {
			if id != rolled && c.NodeStats(id).EpochDrops > 0 {
				dropped++
			}
		}
		if dropped == len(c.Correct())-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d peers counted the replay probe", dropped, len(c.Correct())-1)
		}
		time.Sleep(2 * time.Millisecond)
	}

	if _, _, err := c.Initiate(1, 0, "post-roll"); err != nil {
		t.Fatalf("post-roll Initiate: %v", err)
	}
	if done := c.AwaitDecisions(1, "post-roll", 10*time.Second); done != 4 {
		t.Fatalf("post-roll: %d/4 decided", done)
	}
}
