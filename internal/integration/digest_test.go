package integration

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"ssbyz/internal/byzantine"
	"ssbyz/internal/protocol"
	"ssbyz/internal/sim"
	"ssbyz/internal/simnet"
	"ssbyz/internal/simtime"
	"ssbyz/internal/transient"
)

// simDigest hashes everything a run exposes about delivery order: every
// trace event in recording order, the per-kind sent-message counts, and
// the scheduler's processed-event count.
func simDigest(res *sim.Result) string {
	h := sha256.New()
	for _, ev := range res.Rec.Events() {
		fmt.Fprintf(h, "%+v\n", ev)
	}
	total, byKind := res.World.MessageCount()
	fmt.Fprintf(h, "total=%d\n", total)
	for k := protocol.MsgKind(0); k <= protocol.BaselineRound; k++ {
		fmt.Fprintf(h, "%d=%d\n", k, byKind[k])
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], res.World.Scheduler().Processed())
	h.Write(buf[:])
	return hex.EncodeToString(h.Sum(nil))
}

// digestScenarios are fixed runs that together reach every delivery path
// of the simulated transport: per-recipient and batched broadcast fan-out
// (with lone-recipient ticks), adversarial SendAt unicasts, condition and
// filter drops, injected deliveries, and drifting clocks.
func digestScenarios() map[string]sim.Scenario {
	p16 := protocol.DefaultParams(16)
	p7 := protocol.DefaultParams(7)
	t0 := simtime.Real(2 * p7.D)
	out := map[string]sim.Scenario{
		// Delays over [d/2, d]: a span far wider than 4n, so every
		// broadcast fans out per recipient.
		"wide": {Params: p16, Seed: 1,
			Initiations: []sim.Initiation{{At: simtime.Real(2 * p16.D), G: 0, Value: "wide"}}},
		// A 41-tick span at n = 16 takes the batched path: some ticks
		// carry several recipients, others a lone one.
		"narrow": {Params: p16, Seed: 2, DelayMin: p16.D - 40, DelayMax: p16.D,
			Initiations: []sim.Initiation{{At: simtime.Real(2 * p16.D), G: 3, Value: "narrow"}}},
		// A General that unicasts its initiation to a subset and its
		// support waves through SendAt, plus a colluder contributing late.
		"sendat": {Params: p7, Seed: 3,
			Faulty: map[protocol.NodeID]protocol.Node{
				0: &byzantine.PartialGeneral{Invitees: []protocol.NodeID{1, 2, 3, 4},
					Value: "partial", At: simtime.Duration(t0), SupportDelay: p7.D / 3},
				6: &byzantine.LateSupporter{G: 0, Delay: p7.D},
			}},
		// A timed partition cutting {5, 6} off, and a filter eating
		// every Approve from node 2 to node 3.
		"drops": {Params: p7, Seed: 4,
			Conditions: []simnet.Condition{{Kind: simnet.CondPartition,
				From: t0, Until: t0 + simtime.Real(3*p7.D), Nodes: []protocol.NodeID{5, 6}}},
			Corrupt: func(w *simnet.World) {
				w.SetDropFn(func(from, to protocol.NodeID, m protocol.Message) bool {
					return from == 2 && to == 3 && m.Kind == protocol.Approve
				})
			},
			Initiations: []sim.Initiation{{At: t0, G: 1, Value: "drops"}}},
		// Full-severity transient corruption: spurious in-flight messages
		// arrive through InjectDelivery before the recovery initiation.
		"transient": {Params: p7, Seed: 5,
			Corrupt: func(w *simnet.World) {
				transient.Corrupt(w, transient.Config{Seed: 55, Severity: 1})
			},
			Initiations: []sim.Initiation{{At: simtime.Real(p7.DeltaStb()), G: 2, Value: "recovered"}},
			RunFor:      p7.DeltaStb() + 3*p7.DeltaAgr()},
	}
	clocks := make([]simtime.Clock, p7.N)
	for i := range clocks {
		clocks[i] = simtime.DriftClock(simtime.Local(977*i), int64(40*i-120), 0)
	}
	out["drift"] = sim.Scenario{Params: p7, Seed: 6, Clocks: clocks,
		Conditions: []simnet.Condition{{Kind: simnet.CondJitter,
			From: t0, Until: t0 + simtime.Real(2*p7.D), Jitter: p7.D / 4}},
		Initiations: []sim.Initiation{{At: t0, G: 4, Value: "drift"}}}
	return out
}

// wantDigests pins the simulator's observable output for each digest
// scenario. A change to the transport or the scheduler that alters any
// delivery order, drop, or count fails here; regenerate the table only
// for a change that is meant to alter simulated behaviour.
var wantDigests = map[string]string{
	"wide":      "e53dacf51a74e4014db45a8f9ec4955ffa10a6f0381bca9b17d40ebb09fb3b27",
	"narrow":    "8c5dfe595225ee3a2b8d7d31564ca817bea80291783899faad3cb0e56c6037d2",
	"sendat":    "3e831b0234c7b2664bc000add74374c8fb314bfe1c20267f5c78aae2824b0b20",
	"drops":     "ec10871862816bb69acbb330e8e9af2b4cd25f200fdd80c565a5603a75080b24",
	"transient": "3ad203bd1e556e11623df7a6a74a776c6c22a07d0bbbf6a11bedf5e7d3e9dda2",
	"drift":     "6c324ae54a2ea654808b5f904dfc686f15829b1779eb03b57d3c4390a86e1891",
}

// TestSimulatorDigests pins simulator output from one commit to the next
// (the batched-vs-legacy differentials only compare two paths of the same
// build).
func TestSimulatorDigests(t *testing.T) {
	for name, sc := range digestScenarios() {
		t.Run(name, func(t *testing.T) {
			res, err := sim.Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if got := simDigest(res); got != wantDigests[name] {
				t.Errorf("digest %s, want %s", got, wantDigests[name])
			}
			if name == "drops" && res.World.ConditionDrops() == 0 {
				t.Error("the partition window dropped nothing")
			}
		})
	}
}
