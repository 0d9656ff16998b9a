package simnet

import (
	"testing"

	"ssbyz/internal/core"
	"ssbyz/internal/protocol"
	"ssbyz/internal/simtime"
)

// delivery is one message dispatch, in the order the world ran it.
type delivery struct {
	to protocol.NodeID
	recvd
}

// tapNode is a correct protocol node that also appends every delivery
// it sees to a log shared by the whole world.
type tapNode struct {
	*core.Node
	id  protocol.NodeID
	rt  protocol.Runtime
	log *[]delivery
}

func (n *tapNode) Start(rt protocol.Runtime) {
	n.rt = rt
	n.Node.Start(rt)
}

func (n *tapNode) OnMessage(from protocol.NodeID, m protocol.Message) {
	*n.log = append(*n.log, delivery{to: n.id, recvd: recvd{from: from, msg: m, at: n.rt.Now()}})
	n.Node.OnMessage(from, m)
}

// fanoutRun is everything one agreement exposes about delivery order.
type fanoutRun struct {
	deliveries []delivery
	events     []protocol.TraceEvent
	total      int64
	byKind     map[protocol.MsgKind]int64
	processed  uint64
	// multi reports that at least one batch carried several recipients
	// (a batch's recipient slice keeps its capacity in the pool).
	multi bool
}

// runFanout runs one n = 16 agreement on a 41-tick delay span — narrow
// enough that New picks the batched fan-out — with useBatch then forced
// to the given path.
func runFanout(t *testing.T, seed int64, useBatch bool) fanoutRun {
	t.Helper()
	pp := protocol.DefaultParams(16)
	w := newWorld(t, Config{Params: pp, Seed: seed, DelayMin: pp.D - 40, DelayMax: pp.D})
	if !w.useBatch {
		t.Fatal("a 41-tick span at n = 16 no longer selects the batched fan-out")
	}
	w.useBatch = useBatch
	var out fanoutRun
	nodes := make([]*tapNode, pp.N)
	for i := range nodes {
		nodes[i] = &tapNode{Node: core.NewNode(), id: protocol.NodeID(i), log: &out.deliveries}
		w.SetNode(protocol.NodeID(i), nodes[i])
	}
	w.Start()
	w.Scheduler().At(simtime.Real(2*pp.D), func() {
		if err := nodes[3].InitiateAgreement("fanout"); err != nil {
			t.Errorf("initiate: %v", err)
		}
	})
	w.RunUntil(simtime.Real(3 * pp.DeltaAgr()))
	out.events = w.Recorder().Events()
	out.total, out.byKind = w.MessageCount()
	out.processed = w.Scheduler().Processed()
	for _, b := range w.batchPool {
		out.multi = out.multi || cap(b.tos) > 1
	}
	return out
}

// TestBatchedFanoutMatchesPerRecipient pins the two fan-out paths to each
// other: the same world run batched and per recipient must dispatch the
// same deliveries in the same order, record the same trace, and agree on
// per-kind message counts and the processed-event count.
func TestBatchedFanoutMatchesPerRecipient(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		b, p := runFanout(t, seed, true), runFanout(t, seed, false)
		if !b.multi {
			t.Fatalf("seed %d: the batched run dispatched no multi-recipient batch", seed)
		}
		if p.multi {
			t.Fatalf("seed %d: the per-recipient run built a multi-recipient batch", seed)
		}
		if len(b.deliveries) == 0 || len(b.deliveries) != len(p.deliveries) {
			t.Fatalf("seed %d: %d deliveries (batched) vs %d (per recipient)", seed, len(b.deliveries), len(p.deliveries))
		}
		for i := range b.deliveries {
			if b.deliveries[i] != p.deliveries[i] {
				t.Fatalf("seed %d: delivery %d differs:\nbatched:       %+v\nper recipient: %+v", seed, i, b.deliveries[i], p.deliveries[i])
			}
		}
		if len(b.events) != len(p.events) {
			t.Fatalf("seed %d: %d trace events (batched) vs %d (per recipient)", seed, len(b.events), len(p.events))
		}
		for i := range b.events {
			if b.events[i] != p.events[i] {
				t.Fatalf("seed %d: trace event %d differs:\nbatched:       %+v\nper recipient: %+v", seed, i, b.events[i], p.events[i])
			}
		}
		if b.total != p.total || len(b.byKind) != len(p.byKind) {
			t.Fatalf("seed %d: message counts %d %v (batched) vs %d %v (per recipient)", seed, b.total, b.byKind, p.total, p.byKind)
		}
		for k, v := range p.byKind {
			if b.byKind[k] != v {
				t.Fatalf("seed %d: kind %v count %d (batched) vs %d (per recipient)", seed, k, b.byKind[k], v)
			}
		}
		if b.processed != p.processed {
			t.Fatalf("seed %d: Processed %d (batched) vs %d (per recipient)", seed, b.processed, p.processed)
		}
	}
}
