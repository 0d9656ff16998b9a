package simnet

import (
	"math/rand"
	"testing"

	"ssbyz/internal/protocol"
	"ssbyz/internal/simtime"
)

// condWorld builds a 4-node world with deterministic delays and probes on
// every node.
func condWorld(t *testing.T, conds []Condition) (*World, []*probe) {
	t.Helper()
	pp := protocol.DefaultParams(4)
	w := newWorld(t, Config{
		Params: pp, Seed: 1,
		DelayMin: 100, DelayMax: 100,
		Conditions: conds,
	})
	probes := make([]*probe, 4)
	for i := range probes {
		probes[i] = &probe{}
		w.SetNode(protocol.NodeID(i), probes[i])
	}
	w.Start()
	return w, probes
}

func TestConditionValidation(t *testing.T) {
	pp := protocol.DefaultParams(4)
	cases := []struct {
		name string
		cond Condition
		ok   bool
	}{
		{"partition", Condition{Kind: CondPartition, From: 0, Until: 10, Nodes: []protocol.NodeID{1}}, true},
		{"partition without nodes", Condition{Kind: CondPartition, From: 0, Until: 10}, false},
		{"churn without nodes", Condition{Kind: CondChurn, From: 0, Until: 10}, false},
		{"jitter all links", Condition{Kind: CondJitter, From: 0, Until: 10, Jitter: 50}, true},
		{"negative jitter", Condition{Kind: CondJitter, From: 0, Until: 10, Jitter: -1}, false},
		{"empty window", Condition{Kind: CondJitter, From: 10, Until: 10}, false},
		{"unknown kind", Condition{Kind: "meteor", From: 0, Until: 10}, false},
		{"node out of range", Condition{Kind: CondChurn, From: 0, Until: 10, Nodes: []protocol.NodeID{7}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(Config{Params: pp, Conditions: []Condition{tc.cond}})
			if (err == nil) != tc.ok {
				t.Errorf("New error = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

func TestPartitionDropsCrossGroupInWindow(t *testing.T) {
	// Node 3 is split off for [1000, 2000): cross messages arriving in the
	// window die, same-group and out-of-window messages live.
	w, probes := condWorld(t, []Condition{
		{Kind: CondPartition, From: 1000, Until: 2000, Nodes: []protocol.NodeID{3}},
	})
	send := func(at simtime.Real, from, to protocol.NodeID, val protocol.Value) {
		w.Scheduler().At(at, func() {
			w.Runtime(from).Send(to, protocol.Message{Kind: protocol.Support, G: 0, M: val})
		})
	}
	send(1100, 0, 3, "cross-in")     // arrives 1200, inside → dropped
	send(1100, 3, 0, "cross-back")   // arrives 1200, inside → dropped
	send(1100, 0, 1, "same-group")   // both outside the split set → delivered
	send(2100, 0, 3, "cross-after")  // arrives 2200, window over → delivered
	send(1950, 0, 3, "cross-closes") // arrives 2050 ≥ Until → delivered
	w.RunUntil(5000)

	got := func(p *probe) []protocol.Value {
		var out []protocol.Value
		for _, r := range p.messages {
			out = append(out, r.msg.M)
		}
		return out
	}
	for _, v := range got(probes[3]) {
		if v == "cross-in" {
			t.Error("partitioned message delivered across the split")
		}
	}
	for _, v := range got(probes[0]) {
		if v == "cross-back" {
			t.Error("partitioned message delivered across the split (reverse)")
		}
	}
	want3 := map[protocol.Value]bool{"cross-after": true, "cross-closes": true}
	for _, v := range got(probes[3]) {
		delete(want3, v)
	}
	if len(want3) != 0 {
		t.Errorf("node 3 missing post-window deliveries: %v", want3)
	}
	found := false
	for _, v := range got(probes[1]) {
		if v == "same-group" {
			found = true
		}
	}
	if !found {
		t.Error("same-group message was dropped")
	}
	if w.ConditionDrops() != 2 {
		t.Errorf("ConditionDrops = %d, want 2", w.ConditionDrops())
	}
	// Dropped messages still count as sent.
	if total, _ := w.MessageCount(); total != 5 {
		t.Errorf("MessageCount = %d, want 5 (drops are sends)", total)
	}
}

func TestJitterStretchesWithinLegalRange(t *testing.T) {
	pp := protocol.DefaultParams(4)
	w := newWorld(t, Config{
		Params: pp, Seed: 1, DelayMin: 100, DelayMax: 400,
		Delay: func(protocol.NodeID, protocol.NodeID, protocol.Message, *rand.Rand) simtime.Duration {
			return 100
		},
		Conditions: []Condition{
			{Kind: CondJitter, From: 1000, Until: 2000, Jitter: 200},
			{Kind: CondJitter, From: 1000, Until: 2000, Jitter: 500}, // clamps at DelayMax
		},
	})
	p := &probe{}
	w.SetNode(0, p)
	w.SetNode(1, &probe{})
	w.SetNode(2, &probe{})
	w.SetNode(3, &probe{})
	w.Start()
	w.Scheduler().At(1100, func() {
		w.Runtime(1).Send(0, protocol.Message{Kind: protocol.Support, G: 0, M: "jittered"})
	})
	w.Scheduler().At(2500, func() {
		w.Runtime(1).Send(0, protocol.Message{Kind: protocol.Support, G: 0, M: "calm"})
	})
	w.RunUntil(5000)
	if len(p.messages) != 2 {
		t.Fatalf("got %d messages, want 2", len(p.messages))
	}
	// Jittered: base delay 100 + 200 + 500, clamped to DelayMax=400 →
	// arrival 1500. Calm: base 100 → arrival 2600.
	if at := p.messages[0].at; at != 1500 {
		t.Errorf("jittered arrival local time = %d, want 1500 (clamped to DelayMax)", at)
	}
	if at := p.messages[1].at; at != 2600 {
		t.Errorf("calm arrival local time = %d, want 2600 (no jitter outside window)", at)
	}
	if w.ConditionDrops() != 0 {
		t.Errorf("jitter dropped messages: %d", w.ConditionDrops())
	}
}

func TestChurnDetachesNodeBothDirections(t *testing.T) {
	// Node 1 is down for [1000, 2000): its sends inside the window die at
	// send time, messages arriving while it is down die at arrival.
	w, probes := condWorld(t, []Condition{
		{Kind: CondChurn, From: 1000, Until: 2000, Nodes: []protocol.NodeID{1}},
	})
	send := func(at simtime.Real, from, to protocol.NodeID, val protocol.Value) {
		w.Scheduler().At(at, func() {
			w.Runtime(from).Send(to, protocol.Message{Kind: protocol.Support, G: 0, M: val})
		})
	}
	send(1500, 1, 0, "from-down")   // sender down → dropped
	send(1850, 0, 1, "into-down")   // arrives 1950, receiver down → dropped
	send(1950, 0, 1, "into-up")     // arrives 2050, recovered → delivered
	send(2100, 1, 0, "after-recov") // sender back up → delivered
	send(500, 2, 0, "unrelated")    // untouched link → delivered
	w.RunUntil(5000)

	vals := func(p *probe) map[protocol.Value]bool {
		out := map[protocol.Value]bool{}
		for _, r := range p.messages {
			out[r.msg.M] = true
		}
		return out
	}
	v0, v1 := vals(probes[0]), vals(probes[1])
	if v0["from-down"] {
		t.Error("message sent by a churned-out node was delivered")
	}
	if v1["into-down"] {
		t.Error("message arriving at a churned-out node was delivered")
	}
	for _, want := range []struct {
		p   map[protocol.Value]bool
		val protocol.Value
	}{{v1, "into-up"}, {v0, "after-recov"}, {v0, "unrelated"}} {
		if !want.p[want.val] {
			t.Errorf("%q should have been delivered", want.val)
		}
	}
	if w.ConditionDrops() != 2 {
		t.Errorf("ConditionDrops = %d, want 2", w.ConditionDrops())
	}
}

func TestConditionsApplyOnBroadcastFanout(t *testing.T) {
	// Conditions must hold on both Broadcast fan-out paths exactly as on
	// point-to-point sends: partition node 3 off and broadcast from 0.
	run := func(useBatch bool) (delivered int, drops int64) {
		pp := protocol.DefaultParams(4)
		w := newWorld(t, Config{
			Params: pp, Seed: 7, DelayMin: 100, DelayMax: 100,
			Conditions: []Condition{
				{Kind: CondPartition, From: 0, Until: 10_000, Nodes: []protocol.NodeID{3}},
			},
		})
		w.useBatch = useBatch
		probes := make([]*probe, 4)
		for i := range probes {
			probes[i] = &probe{}
			w.SetNode(protocol.NodeID(i), probes[i])
		}
		w.Start()
		w.Scheduler().At(500, func() {
			w.Runtime(0).Broadcast(protocol.Message{Kind: protocol.Support, G: 0, M: "b"})
		})
		w.RunUntil(5000)
		for _, p := range probes {
			delivered += len(p.messages)
		}
		return delivered, w.ConditionDrops()
	}
	for _, useBatch := range []bool{true, false} {
		delivered, drops := run(useBatch)
		// 4 recipients, the cross-partition one (node 3) dropped.
		if delivered != 3 || drops != 1 {
			t.Errorf("useBatch=%v: delivered=%d drops=%d, want 3 and 1",
				useBatch, delivered, drops)
		}
	}
}
