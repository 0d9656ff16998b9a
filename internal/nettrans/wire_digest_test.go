package nettrans

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"ssbyz/internal/clock"
	"ssbyz/internal/core"
	"ssbyz/internal/protocol"
	"ssbyz/internal/simnet"
	"ssbyz/internal/simtime"
)

// wireDigestCell is one fixed virtual-wire run: n = 4, d = 50, one
// agreement by General 0.
type wireDigestCell struct {
	seed int64
	// attack turns on wireAttackConds with node 1 faulty; otherwise the
	// cluster runs clean, with no conditions and no faulty node.
	attack bool
}

// wireAttackConds is the schedule that stresses the coalescer hardest:
// byte corruption on the faulty node's NIC (corrupt inner frames riding
// containers) plus duplication on every link (chaos copies multiplying
// pending frames, so every run packs multi-frame containers).
func wireAttackConds() []simnet.Condition {
	return []simnet.Condition{
		{Kind: simnet.CondCorrupt, From: 0, Until: attackWindow, Nodes: []protocol.NodeID{1}},
		{Kind: simnet.CondDuplicate, From: 0, Until: attackWindow, Copies: 2},
	}
}

var wireDigestCells = map[string]wireDigestCell{
	"attack-40": {seed: 40, attack: true},
	"attack-41": {seed: 41, attack: true},
	"attack-42": {seed: 42, attack: true},
	"clean":     {seed: 43},
}

// wantWireDigests pins what nodes observe on the virtual wire for each
// cell. The digests were recorded with frame coalescing on and reproduced
// with one datagram per frame, so they hold however frames are packed. A
// change that alters any trace event or transport counter fails here;
// regenerate the table only for a change meant to alter wire behaviour.
// The table was last regenerated when Stats gained SeqStale; hashed
// without that field, every cell reproduced its previous digest.
var wantWireDigests = map[string]string{
	"attack-40": "96a9b51e36c2c294a0e64ce706351f99244aef9929e26a608645c3b37c611762",
	"attack-41": "ad0bd22727a03e90e8991226db8e0338b69010caa1273be31dadbce2d901dea3",
	"attack-42": "cd6d41b4a16129c2d4b48057ab28edc5552f69e38deb31222be6af600bda39b3",
	"clean":     "451177327ed2ce15209fc840b3f0294738b1c94957c8f69103bc4552e88f2611",
}

// runWireCell runs one cell to its decisions, lets every in-flight frame
// land, and returns the cluster's Stats, BatchStats and canonical trace.
func runWireCell(t *testing.T, cell wireDigestCell) (Stats, BatchStats, []protocol.TraceEvent) {
	t.Helper()
	pp := protocol.DefaultParams(4)
	pp.D = 50
	cfg := ClusterConfig{
		Params: pp, Tick: time.Millisecond,
		Clock: clock.NewFake(time.Time{}), Seed: cell.seed,
	}
	if cell.attack {
		cfg.Conditions = wireAttackConds()
		cfg.Faulty = map[protocol.NodeID]protocol.Node{1: core.NewNode()}
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	t.Cleanup(c.Stop)
	budget := time.Duration(pp.DeltaAgr()+20*pp.D) * c.Tick()
	if _, _, err := c.Initiate(0, 0, "wire-digest"); err != nil {
		t.Fatalf("Initiate: %v", err)
	}
	if done := c.AwaitDecisions(0, "wire-digest", budget); done != len(c.Correct()) {
		t.Fatalf("decided %d/%d (stats %+v)", done, len(c.Correct()), c.Stats())
	}
	flushInFlight(c)
	res := c.Result(simtime.Duration(c.NowTicks()) + 1)
	return c.Stats(), c.BatchStats(), res.Rec.Events()
}

// wireDigest hashes every trace event in recording order and then the
// Stats vector.
func wireDigest(s Stats, events []protocol.TraceEvent) string {
	h := sha256.New()
	for _, ev := range events {
		fmt.Fprintf(h, "%+v\n", ev)
	}
	fmt.Fprintf(h, "%+v\n", s)
	return hex.EncodeToString(h.Sum(nil))
}

// TestVirtualWireDigests pins the virtual wire's observable output from
// one commit to the next: the full canonical trace, instant for instant,
// and the Stats vector. No cell may reorder a frame behind its sender's
// anti-replay window (seq_stale). Under the attack schedule the
// coalescer must really have packed containers. The clean cell makes no claim about
// packing: with nothing duplicated, whether two frames share a flush
// depends on goroutine scheduling, which is exactly what the digest must
// not see.
func TestVirtualWireDigests(t *testing.T) {
	for name, cell := range wireDigestCells {
		t.Run(name, func(t *testing.T) {
			s, bs, events := runWireCell(t, cell)
			if got := wireDigest(s, events); got != wantWireDigests[name] {
				t.Errorf("digest %s, want %s (stats %+v)", got, wantWireDigests[name], s)
			}
			if s.SeqStale != 0 {
				t.Errorf("%d frames fell behind the anti-replay window", s.SeqStale)
			}
			if cell.attack && bs.BatchesSent == 0 {
				t.Errorf("the coalescer packed no container: %+v", bs)
			}
		})
	}
}
