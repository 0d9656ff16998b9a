package nettrans

import (
	"testing"
	"time"

	"ssbyz/internal/check"
	"ssbyz/internal/clock"
	"ssbyz/internal/core"
	"ssbyz/internal/protocol"
	"ssbyz/internal/simnet"
	"ssbyz/internal/simtime"
	"ssbyz/internal/transient"
)

// This file is the per-class attack/defense battery of the byte-level
// chaos engine: for every wire-level condition kind the attack counter
// must prove the injection fired AND the corresponding receive-pipeline
// defense counter must prove the rejection fired, while the agreement
// itself stays correct (the property battery over the correct nodes).
// Everything runs on the deterministic virtual-time path, so each test
// is a hard gate, never a flaky-timing rerun.

// attackWindow covers any virtual run these tests drive.
const attackWindow = simtime.Real(1 << 20)

// startAttackCluster boots a 4-node virtual cluster (d=50 ticks) under
// the given schedule. faultyHonest, when ≥ 0, runs that node as an
// honest state machine in a FAULTY slot: the byte-level attacker sits
// on its NIC, so the battery and decision counting exclude it (attacks
// that eat its traffic are model-legal Byzantine behaviour).
func startAttackCluster(t *testing.T, conds []simnet.Condition, faultyHonest protocol.NodeID) (*Cluster, protocol.Params) {
	t.Helper()
	pp := protocol.DefaultParams(4)
	pp.D = 50
	cfg := ClusterConfig{
		Params:     pp,
		Tick:       time.Millisecond,
		Clock:      clock.NewFake(time.Time{}),
		Seed:       42,
		Conditions: conds,
	}
	if faultyHonest >= 0 {
		cfg.Faulty = map[protocol.NodeID]protocol.Node{faultyHonest: core.NewNode()}
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	t.Cleanup(c.Stop)
	return c, pp
}

// runAttackAgreement drives one agreement by General g and returns the
// initiation instant; it fails the test unless every correct node
// decides v.
func runAttackAgreement(t *testing.T, c *Cluster, g protocol.NodeID, v protocol.Value) simtime.Real {
	t.Helper()
	pp := c.Params()
	budget := time.Duration(pp.DeltaAgr()+20*pp.D) * c.Tick()
	t0, _, err := c.Initiate(g, 0, v)
	if err != nil {
		t.Fatalf("initiate g=%d: %v", g, err)
	}
	if done := c.AwaitDecisions(g, v, budget); done != len(c.Correct()) {
		t.Fatalf("decided %d/%d under attack %+v", done, len(c.Correct()), c.Stats())
	}
	return t0
}

// assertBattery runs the full live property battery over the run.
func assertBattery(t *testing.T, c *Cluster, inits []check.LiveInitiation) {
	t.Helper()
	lr := &check.LiveResult{Result: c.Result(simtime.Duration(c.NowTicks()) + 1)}
	if v := lr.Battery(inits); len(v) != 0 {
		t.Fatalf("battery under attack: %v", v)
	}
}

// TestAttackCorruptionRejected: a byte-level attacker on a faulty
// node's NIC flips one byte per outgoing frame; the codec's
// magic/version/kind checks and the message decoder's bounds reject
// the damaged frames (DecodeDrops), and the correct nodes agree
// regardless.
func TestAttackCorruptionRejected(t *testing.T) {
	c, _ := startAttackCluster(t, []simnet.Condition{
		{Kind: simnet.CondCorrupt, From: 0, Until: attackWindow, Nodes: []protocol.NodeID{1}},
	}, 1)
	t0 := runAttackAgreement(t, c, 0, "under-corruption")
	s := c.Stats()
	if s.CorruptFrames == 0 {
		t.Fatal("corruption window injected nothing")
	}
	if s.DecodeDrops == 0 {
		t.Fatalf("no decode drops despite %d corrupted frames: %+v", s.CorruptFrames, s)
	}
	assertBattery(t, c, []check.LiveInitiation{{G: 0, V: "under-corruption", T0: t0}})
}

// TestAttackCrossEpochReplayRejected: replayed frames claiming another
// cluster incarnation die on the epoch check (EpochDrops) — the
// incarnation-id envelope doing its job.
func TestAttackCrossEpochReplayRejected(t *testing.T) {
	c, _ := startAttackCluster(t, []simnet.Condition{
		{Kind: simnet.CondReplay, From: 0, Until: attackWindow, Nodes: []protocol.NodeID{1}, CrossEpoch: true},
	}, 1)
	t0 := runAttackAgreement(t, c, 0, "under-xepoch")
	s := c.Stats()
	if s.ReplayFrames == 0 {
		t.Fatal("cross-epoch replay window injected nothing")
	}
	if s.EpochDrops == 0 {
		t.Fatalf("no epoch drops despite %d replayed frames: %+v", s.ReplayFrames, s)
	}
	assertBattery(t, c, []check.LiveInitiation{{G: 0, V: "under-xepoch", T0: t0}})
}

// TestAttackStaleReplayRejected: replays of frames older than d keep
// their ORIGINAL send tick, so the bounded-delay deadline treats them
// as late frames (LateDrops) — the model's "within d or not at all"
// enforced against recorded traffic. Two back-to-back agreements: the
// first fills the attacker's tape, the second sends long after those
// captures went stale.
func TestAttackStaleReplayRejected(t *testing.T) {
	c, _ := startAttackCluster(t, []simnet.Condition{
		{Kind: simnet.CondReplay, From: 0, Until: attackWindow, Nodes: []protocol.NodeID{1}},
	}, 1)
	t0 := runAttackAgreement(t, c, 0, "under-replay")
	t1 := runAttackAgreement(t, c, 2, "under-replay-2")
	flushInFlight(c)
	s := c.Stats()
	if s.ReplayFrames == 0 {
		t.Fatal("stale replay window injected nothing")
	}
	if s.LateDrops == 0 {
		t.Fatalf("no deadline drops despite %d stale replays: %+v", s.ReplayFrames, s)
	}
	assertBattery(t, c, []check.LiveInitiation{
		{G: 0, V: "under-replay", T0: t0},
		{G: 2, V: "under-replay-2", T0: t1},
	})
}

// flushInFlight steps virtual time far enough past the last event that
// every held or delayed frame has arrived (and been judged by the
// receive pipeline) before counters are read.
func flushInFlight(c *Cluster) {
	pp := c.Params()
	c.StepUntil(func() bool { return false },
		simtime.Duration(c.NowTicks())+simtime.Duration(8*pp.D))
}

// TestAttackForgedSenderRejected: frames claiming another node's
// identity fail source authentication (AuthDrops) — the paper's
// sender-identification assumption re-established from bytes.
func TestAttackForgedSenderRejected(t *testing.T) {
	c, _ := startAttackCluster(t, []simnet.Condition{
		{Kind: simnet.CondForge, From: 0, Until: attackWindow, Nodes: []protocol.NodeID{1}},
	}, 1)
	t0 := runAttackAgreement(t, c, 0, "under-forgery")
	s := c.Stats()
	if s.ForgeFrames == 0 {
		t.Fatal("forge window injected nothing")
	}
	if s.AuthDrops == 0 {
		t.Fatalf("no auth drops despite %d forged frames: %+v", s.ForgeFrames, s)
	}
	assertBattery(t, c, []check.LiveInitiation{{G: 0, V: "under-forgery", T0: t0}})
}

// TestAttackDuplicationSuppressed: every frame duplicated on every
// link; receive-side duplicate suppression drops the extra copies
// (DupDrops), restoring at-most-once delivery. Duplication is legal on
// any link, so all nodes are correct and the full battery must hold.
func TestAttackDuplicationSuppressed(t *testing.T) {
	c, _ := startAttackCluster(t, []simnet.Condition{
		{Kind: simnet.CondDuplicate, From: 0, Until: attackWindow, Copies: 2},
	}, -1)
	t0 := runAttackAgreement(t, c, 0, "under-duplication")
	s := c.Stats()
	if s.DupFrames == 0 {
		t.Fatal("duplicate window injected nothing")
	}
	if s.DupDrops == 0 {
		t.Fatalf("no duplicate drops despite %d injected copies: %+v", s.DupFrames, s)
	}
	assertBattery(t, c, []check.LiveInitiation{{G: 0, V: "under-duplication", T0: t0}})
}

// TestAttackReorderWithinBoundTolerated: every third frame held back by
// d/2 without touching its send tick — delivery order scrambled but
// still within the d bound, which the event-driven protocol absorbs
// (battery clean, ReorderHolds counts the holds).
func TestAttackReorderWithinBoundTolerated(t *testing.T) {
	c, _ := startAttackCluster(t, []simnet.Condition{
		{Kind: simnet.CondReorder, From: 0, Until: attackWindow, Stride: 3},
	}, -1)
	t0 := runAttackAgreement(t, c, 0, "under-reorder")
	s := c.Stats()
	if s.ReorderHolds == 0 {
		t.Fatal("reorder window held nothing")
	}
	assertBattery(t, c, []check.LiveInitiation{{G: 0, V: "under-reorder", T0: t0}})
}

// TestAttackReorderBeyondBoundBecomesLoss: a hostile reorder holding a
// faulty node's frames far past d trips the deadline drop — the
// bounded-delay axiom turns unbounded reordering into plain loss
// (LateDrops), which the protocol tolerates by design.
func TestAttackReorderBeyondBoundBecomesLoss(t *testing.T) {
	c, _ := startAttackCluster(t, []simnet.Condition{
		{Kind: simnet.CondReorder, From: 0, Until: attackWindow, Nodes: []protocol.NodeID{1}, Jitter: 150},
	}, 1)
	t0 := runAttackAgreement(t, c, 0, "under-hostile-reorder")
	flushInFlight(c)
	s := c.Stats()
	if s.ReorderHolds == 0 {
		t.Fatal("hostile reorder window held nothing")
	}
	if s.LateDrops == 0 {
		t.Fatalf("no deadline drops despite %d held frames: %+v", s.ReorderHolds, s)
	}
	assertBattery(t, c, []check.LiveInitiation{{G: 0, V: "under-hostile-reorder", T0: t0}})
}

// TestWANMatrixWithinModel: an asymmetric two-region WAN delay matrix
// plus deterministic per-frame jitter, all within the D/2 environment
// budget — no clamping, full battery, every node decides.
func TestWANMatrixWithinModel(t *testing.T) {
	c, _ := startAttackCluster(t, []simnet.Condition{
		{
			Kind: simnet.CondWAN, From: 0, Until: attackWindow,
			Groups: [][]protocol.NodeID{{0, 1}, {2, 3}},
			Matrix: [][]simtime.Duration{{0, 10}, {12, 0}},
			Jitter: 5,
		},
	}, -1)
	t0 := runAttackAgreement(t, c, 0, "over-wan")
	s := c.Stats()
	if s.Clamps != 0 {
		t.Fatalf("in-model WAN matrix clamped %d sends", s.Clamps)
	}
	assertBattery(t, c, []check.LiveInitiation{{G: 0, V: "over-wan", T0: t0}})
}

// TestWANClampSurfaced: a WAN matrix demanding more delay than the
// model admits is clamped to D/2 — and, since PR 8, counted instead of
// silent: Clamps must record every clamped send while the run stays
// inside the d bound (battery clean).
func TestWANClampSurfaced(t *testing.T) {
	c, _ := startAttackCluster(t, []simnet.Condition{
		{
			Kind: simnet.CondWAN, From: 0, Until: attackWindow,
			Groups: [][]protocol.NodeID{{0, 1}, {2, 3}},
			Matrix: [][]simtime.Duration{{0, 500}, {500, 0}},
		},
	}, -1)
	t0 := runAttackAgreement(t, c, 0, "over-clamped-wan")
	s := c.Stats()
	if s.Clamps == 0 {
		t.Fatal("overloaded WAN matrix never clamped")
	}
	assertBattery(t, c, []check.LiveInitiation{{G: 0, V: "over-clamped-wan", T0: t0}})
}

// TestWANRateCapDefers: a per-link bandwidth cap of 2 frames per d
// window defers the broadcast-wave excess to later windows
// (RateDeferrals) without pushing any delivery past d.
func TestWANRateCapDefers(t *testing.T) {
	c, _ := startAttackCluster(t, []simnet.Condition{
		{
			Kind: simnet.CondWAN, From: 0, Until: attackWindow,
			Groups: [][]protocol.NodeID{{0, 1, 2, 3}},
			Matrix: [][]simtime.Duration{{0}},
			Rate:   1,
		},
	}, -1)
	t0 := runAttackAgreement(t, c, 0, "over-capped-wan")
	s := c.Stats()
	if s.RateDeferrals == 0 {
		t.Fatal("rate cap deferred nothing")
	}
	assertBattery(t, c, []check.LiveInitiation{{G: 0, V: "over-capped-wan", T0: t0}})
}

// TestVirtualLiveTransientRecovery is the in-situ form of the paper's
// self-stabilization claim: a RUNNING virtual cluster has every node's
// protocol state corrupted mid-run through transient.CorruptRunning
// (executed inside each node's event loop, exactly as the daemon's
// control-socket fault path does), and the observed re-stabilization
// time — until the planted phantom "returned" records are swept on
// every node — must stay within Δstb = 2Δreset. A fresh agreement and
// the property battery over the post-recovery suffix then prove the
// system behaves as if the transient never happened.
func TestVirtualLiveTransientRecovery(t *testing.T) {
	c, pp := startAttackCluster(t, nil, -1)
	fake := c.Virtual()

	// A healthy agreement first: the corruption hits a warm system.
	runAttackAgreement(t, c, 0, "pre-fault")

	const markG = protocol.NodeID(3)
	corruptAt := c.NowTicks()
	for _, id := range c.Correct() {
		id := id
		c.DoWait(id, func(n protocol.Node) {
			transient.CorruptRunning(n.(*core.Node), pp, transient.Config{
				Seed:  1000 + int64(id),
				Marks: []protocol.NodeID{markG},
			}, simtime.Local(c.NowTicks()))
		})
	}
	// The phantom must be visible before recovery can be measured.
	for _, id := range c.Correct() {
		id := id
		c.DoWait(id, func(n protocol.Node) {
			if returned, _, _ := n.(*core.Node).Result(markG); !returned {
				t.Errorf("node %d: mark was not planted", id)
			}
		})
	}

	marksCleared := func() bool {
		cleared := true
		for _, id := range c.Correct() {
			id := id
			c.DoWait(id, func(n protocol.Node) {
				if returned, _, _ := n.(*core.Node).Result(markG); returned {
					cleared = false
				}
			})
		}
		return cleared
	}

	// Step virtual time timer by timer, polling coarsely, until every
	// node has swept its phantom or the Δstb budget is exhausted.
	deadline := corruptAt + simtime.Real(pp.DeltaStb())
	recovered := false
	for steps := 0; c.NowTicks() < deadline; steps++ {
		if steps%32 == 0 && marksCleared() {
			recovered = true
			break
		}
		if !fake.Step() {
			break
		}
	}
	if !recovered && !marksCleared() {
		t.Fatalf("phantom returned-records survived Δstb = %d ticks", pp.DeltaStb())
	}
	restab := c.NowTicks() - corruptAt
	if restab <= 0 || restab > simtime.Real(pp.DeltaStb()) {
		t.Fatalf("re-stabilization took %d ticks, want within (0, Δstb=%d]", restab, pp.DeltaStb())
	}
	t.Logf("re-stabilized in %d ticks (Δstb budget %d)", restab, pp.DeltaStb())

	// Let the full stabilization window pass before probing, so the
	// probe's battery measures the promised post-Δstb behaviour.
	c.StepUntil(func() bool { return false }, simtime.Duration(deadline))

	suffixStart := c.NowTicks()
	t0 := runAttackAgreement(t, c, 2, "post-fault")
	var suffix []protocol.TraceEvent
	for _, ev := range c.rec.Events() {
		if ev.RT >= suffixStart {
			suffix = append(suffix, ev)
		}
	}
	lr := &check.LiveResult{Result: BuildResult(pp, suffix, c.Correct(), simtime.Duration(c.NowTicks())+1)}
	if v := lr.Battery([]check.LiveInitiation{{G: 2, V: "post-fault", T0: t0}}); len(v) != 0 {
		t.Fatalf("post-recovery battery: %v", v)
	}
}

// TestAttackClassesRideCoalescedWire sweeps every byte-level attack
// class over the BATCHED wire and proves three things per class: the
// coalescer really shipped multi-frame containers while the attack ran
// (a blanket duplicate window guarantees multi-frame bursts, so the
// check cannot pass vacuously), the class's injection counter fired,
// and its defense counter fired — i.e. the per-class injected-AND-
// rejected accounting of the attack campaign survives coalescing
// unchanged. Tolerated classes (reorder-within-bound, in-model WAN)
// assert toleration: holds counted, zero clamps, battery clean.
func TestAttackClassesRideCoalescedWire(t *testing.T) {
	everywhereDup := simnet.Condition{
		Kind: simnet.CondDuplicate, From: 0, Until: attackWindow, Copies: 2,
	}
	classes := []struct {
		name   string
		cond   simnet.Condition
		faulty protocol.NodeID // -1: all-correct (the class is model-legal)
		check  func(t *testing.T, s Stats)
	}{
		{"corrupt", simnet.Condition{Kind: simnet.CondCorrupt, From: 0, Until: attackWindow, Nodes: []protocol.NodeID{1}}, 1,
			func(t *testing.T, s Stats) {
				if s.CorruptFrames == 0 || s.DecodeDrops == 0 {
					t.Fatalf("corrupt: injected %d, decode drops %d", s.CorruptFrames, s.DecodeDrops)
				}
			}},
		{"replay-stale", simnet.Condition{Kind: simnet.CondReplay, From: 0, Until: attackWindow, Nodes: []protocol.NodeID{1}}, 1,
			func(t *testing.T, s Stats) {
				if s.ReplayFrames == 0 || s.LateDrops == 0 {
					t.Fatalf("stale replay: injected %d, late drops %d", s.ReplayFrames, s.LateDrops)
				}
			}},
		{"replay-xepoch", simnet.Condition{Kind: simnet.CondReplay, From: 0, Until: attackWindow, Nodes: []protocol.NodeID{1}, CrossEpoch: true}, 1,
			func(t *testing.T, s Stats) {
				if s.ReplayFrames == 0 || s.EpochDrops == 0 {
					t.Fatalf("cross-epoch replay: injected %d, epoch drops %d", s.ReplayFrames, s.EpochDrops)
				}
			}},
		{"forge", simnet.Condition{Kind: simnet.CondForge, From: 0, Until: attackWindow, Nodes: []protocol.NodeID{1}}, 1,
			func(t *testing.T, s Stats) {
				if s.ForgeFrames == 0 || s.AuthDrops == 0 {
					t.Fatalf("forge: injected %d, auth drops %d", s.ForgeFrames, s.AuthDrops)
				}
			}},
		{"duplicate", simnet.Condition{Kind: simnet.CondDuplicate, From: 0, Until: attackWindow, Copies: 3}, -1,
			func(t *testing.T, s Stats) {
				if s.DupFrames == 0 || s.DupDrops == 0 {
					t.Fatalf("duplicate: injected %d, dup drops %d", s.DupFrames, s.DupDrops)
				}
			}},
		{"reorder-within", simnet.Condition{Kind: simnet.CondReorder, From: 0, Until: attackWindow, Stride: 3}, -1,
			func(t *testing.T, s Stats) {
				if s.ReorderHolds == 0 {
					t.Fatal("reorder-within: held nothing")
				}
			}},
		{"reorder-beyond", simnet.Condition{Kind: simnet.CondReorder, From: 0, Until: attackWindow, Nodes: []protocol.NodeID{1}, Jitter: 150}, 1,
			func(t *testing.T, s Stats) {
				if s.ReorderHolds == 0 || s.LateDrops == 0 {
					t.Fatalf("reorder-beyond: held %d, late drops %d", s.ReorderHolds, s.LateDrops)
				}
			}},
		{"wan", simnet.Condition{
			Kind: simnet.CondWAN, From: 0, Until: attackWindow,
			Groups: [][]protocol.NodeID{{0, 1}, {2, 3}},
			Matrix: [][]simtime.Duration{{0, 10}, {12, 0}},
			Jitter: 5,
		}, -1,
			func(t *testing.T, s Stats) {
				if s.Clamps != 0 {
					t.Fatalf("wan: in-model matrix clamped %d sends", s.Clamps)
				}
			}},
	}
	for _, tc := range classes {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := startAttackCluster(t,
				[]simnet.Condition{tc.cond, everywhereDup}, tc.faulty)
			t0 := runAttackAgreement(t, c, 0, "coalesced-attack")
			// A second agreement gives replay tapes time to go stale and
			// every class a longer window to coalesce under.
			t1 := runAttackAgreement(t, c, 2, "coalesced-attack-2")
			flushInFlight(c)
			tc.check(t, c.Stats())
			if bs := c.BatchStats(); bs.BatchesSent == 0 || bs.BatchedFrames < 2*bs.BatchesSent {
				t.Fatalf("attack ran but the wire never coalesced: %+v", bs)
			}
			assertBattery(t, c, []check.LiveInitiation{
				{G: 0, V: "coalesced-attack", T0: t0},
				{G: 2, V: "coalesced-attack-2", T0: t1},
			})
		})
	}
}
