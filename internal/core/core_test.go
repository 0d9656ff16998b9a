package core

import (
	"errors"
	"testing"

	"ssbyz/internal/protocol"
	"ssbyz/internal/simnet"
	"ssbyz/internal/simtime"
)

// world assembles n correct nodes and returns the world plus the nodes.
func world(t *testing.T, n int, seed int64) (*simnet.World, []*Node) {
	t.Helper()
	pp := protocol.DefaultParams(n)
	w, err := simnet.New(simnet.Config{Params: pp, Seed: seed, DelayMin: pp.D / 2, DelayMax: pp.D})
	if err != nil {
		t.Fatalf("simnet.New: %v", err)
	}
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		nodes[i] = NewNode()
		w.SetNode(protocol.NodeID(i), nodes[i])
	}
	w.Start()
	return w, nodes
}

func TestInitiateBeforeStart(t *testing.T) {
	n := NewNode()
	if err := n.InitiateAgreement("v"); err == nil {
		t.Error("InitiateAgreement on an unstarted node succeeded")
	}
}

func TestInitiateBottomRefused(t *testing.T) {
	w, nodes := world(t, 4, 1)
	_ = w
	if err := nodes[0].InitiateAgreement(protocol.Bottom); err == nil {
		t.Error("InitiateAgreement(⊥) succeeded")
	}
}

func TestHappyPathAllDecide(t *testing.T) {
	w, nodes := world(t, 7, 2)
	pp := w.Params()
	w.Scheduler().At(simtime.Real(2*pp.D), func() {
		if err := nodes[0].InitiateAgreement("x"); err != nil {
			t.Errorf("InitiateAgreement: %v", err)
		}
	})
	w.RunUntil(simtime.Real(3 * pp.DeltaAgr()))
	for i, n := range nodes {
		returned, decided, v := n.Result(0)
		if !returned || !decided || v != "x" {
			t.Errorf("node %d: (%v,%v,%q), want decide x", i, returned, decided, v)
		}
	}
}

func TestIG1SpacingEnforced(t *testing.T) {
	w, nodes := world(t, 4, 3)
	pp := w.Params()
	var second error
	w.Scheduler().At(simtime.Real(2*pp.D), func() {
		if err := nodes[0].InitiateAgreement("a"); err != nil {
			t.Errorf("first initiation: %v", err)
		}
		second = nodes[0].InitiateAgreement("b") // immediate: IG1
	})
	w.RunUntil(simtime.Real(pp.DeltaAgr()))
	if !errors.Is(second, ErrTooSoon) {
		t.Errorf("second initiation error = %v, want ErrTooSoon", second)
	}
}

func TestIG2SameValueSpacingEnforced(t *testing.T) {
	w, nodes := world(t, 4, 4)
	pp := w.Params()
	var second error
	w.Scheduler().At(simtime.Real(2*pp.D), func() {
		if err := nodes[0].InitiateAgreement("a"); err != nil {
			t.Errorf("first initiation: %v", err)
		}
	})
	// After Δ0 but before Δv: a different value passes, the same fails.
	w.Scheduler().At(simtime.Real(2*pp.D+pp.Delta0()+pp.D), func() {
		second = nodes[0].InitiateAgreement("a")
	})
	w.RunUntil(simtime.Real(2 * pp.DeltaAgr()))
	if !errors.Is(second, ErrValueTooSoon) {
		t.Errorf("same-value reinitiation error = %v, want ErrValueTooSoon", second)
	}
}

func TestIG2DifferentValueAllowedAfterDelta0(t *testing.T) {
	w, nodes := world(t, 4, 5)
	pp := w.Params()
	var second error
	w.Scheduler().At(simtime.Real(2*pp.D), func() {
		_ = nodes[0].InitiateAgreement("a")
	})
	w.Scheduler().At(simtime.Real(2*pp.D+pp.Delta0()+pp.D), func() {
		second = nodes[0].InitiateAgreement("b")
	})
	w.RunUntil(simtime.Real(3 * pp.DeltaAgr()))
	if second != nil {
		t.Errorf("different-value initiation after Δ0 refused: %v", second)
	}
	for i, n := range nodes {
		if returned, decided, v := n.Result(0); !returned || !decided || v != "b" {
			t.Errorf("node %d second agreement: (%v,%v,%q)", i, returned, decided, v)
		}
	}
}

func TestRecurringAgreementsSameValueAfterDeltaV(t *testing.T) {
	w, nodes := world(t, 4, 6)
	pp := w.Params()
	var errs []error
	at := simtime.Real(2 * pp.D)
	w.Scheduler().At(at, func() { errs = append(errs, nodes[0].InitiateAgreement("v")) })
	w.Scheduler().At(at+simtime.Real(pp.DeltaV()+pp.D), func() {
		errs = append(errs, nodes[0].InitiateAgreement("v"))
	})
	w.RunUntil(at + simtime.Real(pp.DeltaV()+3*pp.DeltaAgr()))
	for i, err := range errs {
		if err != nil {
			t.Errorf("initiation %d refused: %v", i, err)
		}
	}
	decides := w.Recorder().ByKind(protocol.EvDecide)
	// 4 nodes × 2 agreements.
	if len(decides) != 8 {
		t.Errorf("decides = %d, want 8", len(decides))
	}
}

func TestResultUnknownGeneral(t *testing.T) {
	_, nodes := world(t, 4, 7)
	returned, decided, v := nodes[1].Result(3)
	if returned || decided || v != protocol.Bottom {
		t.Errorf("Result for unknown General = (%v,%v,%q)", returned, decided, v)
	}
}

func TestMalformedGeneralIDDropped(t *testing.T) {
	w, nodes := world(t, 4, 8)
	// Deliver messages with out-of-range General ids directly.
	nodes[1].OnMessage(2, protocol.Message{Kind: protocol.Support, G: 99, M: "v"})
	nodes[1].OnMessage(2, protocol.Message{Kind: protocol.Support, G: -1, M: "v"})
	if len(nodes[1].insts) != 0 {
		t.Error("instance created for a malformed General id")
	}
	_ = w
}

func TestForgedInitiatorDropped(t *testing.T) {
	w, nodes := world(t, 4, 9)
	pp := w.Params()
	// Node 2 sends an Initiator message claiming G=0; the transport stamps
	// From=2 ≠ G, so it must be dropped.
	w.Scheduler().At(0, func() {
		w.Runtime(2).Broadcast(protocol.Message{Kind: protocol.Initiator, G: 0, M: "forged"})
	})
	w.RunUntil(simtime.Real(3 * pp.DeltaAgr()))
	for i, n := range nodes {
		if returned, _, _ := n.Result(0); returned {
			t.Errorf("node %d returned for a forged initiation", i)
		}
	}
	if evs := w.Recorder().ByKind(protocol.EvIAccept); len(evs) != 0 {
		t.Errorf("forged initiation produced %d I-accepts", len(evs))
	}
}

func TestExpireWithoutQuorum(t *testing.T) {
	// Only the General's own support exists (other nodes are silent), so
	// no anchor forms; the instance must terminate by reset (EvExpire).
	pp := protocol.DefaultParams(4)
	w, err := simnet.New(simnet.Config{Params: pp, Seed: 10})
	if err != nil {
		t.Fatalf("simnet.New: %v", err)
	}
	n0 := NewNode()
	w.SetNode(0, n0)
	// Nodes 1..3 left nil (silent).
	w.Start()
	w.Scheduler().At(simtime.Real(2*pp.D), func() {
		if err := n0.InitiateAgreement("alone"); err != nil {
			t.Errorf("InitiateAgreement: %v", err)
		}
	})
	w.RunUntil(simtime.Real(3 * pp.DeltaAgr()))
	if returned, _, _ := n0.Result(0); returned {
		t.Error("node returned a value without any quorum")
	}
	if evs := w.Recorder().ByKind(protocol.EvExpire); len(evs) == 0 {
		t.Error("no EvExpire: the invocation never terminated by reset")
	}
}

func TestIG3BackoffAfterFailedInvocation(t *testing.T) {
	// Same lonely-General setup: the General's own primitive cannot reach
	// L4/M4/N4 in time, so IG3 forces Δreset of silence.
	pp := protocol.DefaultParams(4)
	w, err := simnet.New(simnet.Config{Params: pp, Seed: 11})
	if err != nil {
		t.Fatalf("simnet.New: %v", err)
	}
	n0 := NewNode()
	w.SetNode(0, n0)
	w.Start()
	var backoffErr error
	w.Scheduler().At(simtime.Real(2*pp.D), func() { _ = n0.InitiateAgreement("x") })
	w.Scheduler().At(simtime.Real(2*pp.D+pp.Delta0()+pp.D), func() {
		backoffErr = n0.InitiateAgreement("y")
	})
	w.RunUntil(simtime.Real(pp.DeltaReset()))
	if !n0.Backoff() && !errors.Is(backoffErr, ErrBackoff) {
		t.Errorf("IG3 backoff not engaged after a failed invocation (err=%v)", backoffErr)
	}
}

func TestHasDistinctChain(t *testing.T) {
	rtStub := &Node{}
	_ = rtStub
	inst := &Instance{levels: make(map[protocol.Value]map[int]map[protocol.NodeID]levelRec)}
	add := func(v protocol.Value, k int, p protocol.NodeID) {
		byLevel, ok := inst.levels[v]
		if !ok {
			byLevel = make(map[int]map[protocol.NodeID]levelRec)
			inst.levels[v] = byLevel
		}
		senders, ok := byLevel[k]
		if !ok {
			senders = make(map[protocol.NodeID]levelRec)
			byLevel[k] = senders
		}
		senders[p] = levelRec{}
	}
	// Level 1: {1}, level 2: {1} — the same node cannot fill both.
	add("v", 1, 1)
	add("v", 2, 1)
	if inst.hasDistinctChain("v", 2) {
		t.Error("chain accepted a repeated sender")
	}
	// A second node at level 2 resolves it.
	add("v", 2, 2)
	if !inst.hasDistinctChain("v", 2) {
		t.Error("distinct chain not found")
	}
	// Backtracking case: level 1 {1,2}, level 2 {2}; must assign 2→2, 1→1.
	inst.levels = make(map[protocol.Value]map[int]map[protocol.NodeID]levelRec)
	add("w", 1, 1)
	add("w", 1, 2)
	add("w", 2, 2)
	if !inst.hasDistinctChain("w", 2) {
		t.Error("backtracking matching failed")
	}
	// Missing level.
	if inst.hasDistinctChain("w", 3) {
		t.Error("chain found across a missing level")
	}
}

func TestStringer(t *testing.T) {
	n := NewNode()
	if s := n.String(); s != "core.Node(unattached)" {
		t.Errorf("unattached String = %q", s)
	}
	w, nodes := world(t, 4, 12)
	_ = w
	if s := nodes[2].String(); s != "core.Node(2)" {
		t.Errorf("String = %q", s)
	}
}

func TestDecisionSkewWithDriftingClocks(t *testing.T) {
	pp := protocol.DefaultParams(7)
	clocks := make([]simtime.Clock, 7)
	for i := range clocks {
		// ±200 ppm drift and scattered offsets: τ readings disagree wildly
		// but intervals stay honest.
		ppm := int64(i-3) * 100
		clocks[i] = simtime.DriftClock(simtime.Local(i*1_000_000), ppm, 0)
	}
	w, err := simnet.New(simnet.Config{Params: pp, Seed: 13, Clocks: clocks, DelayMin: pp.D / 2, DelayMax: pp.D})
	if err != nil {
		t.Fatalf("simnet.New: %v", err)
	}
	nodes := make([]*Node, 7)
	for i := range nodes {
		nodes[i] = NewNode()
		w.SetNode(protocol.NodeID(i), nodes[i])
	}
	w.Start()
	w.Scheduler().At(simtime.Real(2*pp.D), func() { _ = nodes[0].InitiateAgreement("drift") })
	w.RunUntil(simtime.Real(3 * pp.DeltaAgr()))
	decides := w.Recorder().ByKind(protocol.EvDecide)
	if len(decides) != 7 {
		t.Fatalf("decides = %d, want 7", len(decides))
	}
	lo, hi := decides[0].RT, decides[0].RT
	for _, ev := range decides {
		if ev.M != "drift" {
			t.Errorf("node %d decided %q", ev.Node, ev.M)
		}
		if ev.RT < lo {
			lo = ev.RT
		}
		if ev.RT > hi {
			hi = ev.RT
		}
	}
	if skew := hi - lo; skew > 2*simtime.Real(pp.D) {
		t.Errorf("decision skew %d > 2d under drifting clocks", skew)
	}
}

func TestWrappedClocksStillAgree(t *testing.T) {
	pp := protocol.DefaultParams(4)
	pp.Wrap = 10 * pp.DeltaStb()
	clocks := make([]simtime.Clock, 4)
	for i := range clocks {
		// Offsets just below the wrap point so readings wrap mid-run.
		clocks[i] = simtime.Clock{OffsetTicks: simtime.Local(pp.Wrap) - 3000, Wrap: pp.Wrap}
	}
	w, err := simnet.New(simnet.Config{Params: pp, Seed: 14, Clocks: clocks, DelayMin: pp.D / 2, DelayMax: pp.D})
	if err != nil {
		t.Fatalf("simnet.New: %v", err)
	}
	nodes := make([]*Node, 4)
	for i := range nodes {
		nodes[i] = NewNode()
		w.SetNode(protocol.NodeID(i), nodes[i])
	}
	w.Start()
	w.Scheduler().At(simtime.Real(2*pp.D), func() { _ = nodes[0].InitiateAgreement("wrap") })
	w.RunUntil(simtime.Real(3 * pp.DeltaAgr()))
	for i, n := range nodes {
		if returned, decided, v := n.Result(0); !returned || !decided || v != "wrap" {
			t.Errorf("node %d with wrapping clock: (%v,%v,%q)", i, returned, decided, v)
		}
	}
}

func TestConcurrentGeneralsIndependentInstances(t *testing.T) {
	w, nodes := world(t, 7, 15)
	pp := w.Params()
	w.Scheduler().At(simtime.Real(2*pp.D), func() { _ = nodes[0].InitiateAgreement("from-0") })
	w.Scheduler().At(simtime.Real(3*pp.D), func() { _ = nodes[1].InitiateAgreement("from-1") })
	w.RunUntil(simtime.Real(3 * pp.DeltaAgr()))
	for i, n := range nodes {
		if _, decided, v := n.Result(0); !decided || v != "from-0" {
			t.Errorf("node %d General 0: (%v,%q)", i, decided, v)
		}
		if _, decided, v := n.Result(1); !decided || v != "from-1" {
			t.Errorf("node %d General 1: (%v,%q)", i, decided, v)
		}
	}
}

// TestSBlockDecisionIgnoresMapOrder plants Block S residue for several
// values through CorruptLevel and checks that the decision and its relay
// round are the same in every one of 100 runs: the smallest satisfiable r
// first, then the smallest value. In the first case every value has a
// level-1 chain, so r = 1 and "a" wins. In the second, r = 1 has expired
// (τG lies 4Φ back), so only values with a distinct two-level chain
// qualify at r = 2: "c" and "d", of which "c" wins although "a" and "b"
// sort first.
func TestSBlockDecisionIgnoresMapOrder(t *testing.T) {
	type plant struct {
		v protocol.Value
		k int
		p protocol.NodeID
	}
	cases := []struct {
		name   string
		back   int // τG lies back·Φ before now
		plants []plant
		want   protocol.Value
		wantK  int
	}{
		{"r=1", 0, []plant{{"b", 1, 2}, {"a", 1, 3}, {"c", 1, 4}}, "a", 2},
		{"r=2", 4, []plant{
			{"a", 1, 2},
			{"b", 1, 2}, {"b", 2, 2}, // one sender cannot fill two levels
			{"d", 1, 3}, {"d", 2, 4},
			{"c", 1, 4}, {"c", 2, 5},
		}, "c", 3},
	}
	for _, tc := range cases {
		for run := 0; run < 100; run++ {
			w, nodes := world(t, 7, int64(run))
			pp := w.Params()
			inst := nodes[1].Instance(0)
			now := w.LocalNow(1)
			inst.CorruptMidAgreement(now-simtime.Local(simtime.Duration(tc.back)*pp.Phi()), "x")
			for _, pl := range tc.plants {
				inst.CorruptLevel(pl.v, pl.k, pl.p, now)
			}
			inst.trySBlock(now)
			returned, decided, v := inst.Returned()
			if !returned || !decided || v != tc.want {
				t.Fatalf("%s run %d: (%v,%v,%q), want decide %q", tc.name, run, returned, decided, v, tc.want)
			}
			var k int
			for _, ev := range w.Recorder().Events() {
				if ev.Kind == protocol.EvDecide && ev.Node == 1 && ev.G == 0 {
					k = ev.K
				}
			}
			if k != tc.wantK {
				t.Fatalf("%s run %d: relay round %d, want %d", tc.name, run, k, tc.wantK)
			}
		}
	}
}
