package harness

import (
	"ssbyz/internal/baseline"
	"ssbyz/internal/protocol"
	"ssbyz/internal/simnet"
	"ssbyz/internal/simtime"
)

// runBaseline executes one fault-free TPS-87 baseline agreement (General
// 0, value "v", initiated at 2d) with actual delays in [δ/2, δ] and
// returns per-node decision latencies in ticks plus the total message
// count. It is the baseline half of a latCell and of the S1 scaling
// cells; the head-to-head experiments fan it out per seed via sweep.
func runBaseline(opt Options, pp protocol.Params, seed int64, delta simtime.Duration) ([]float64, int64) {
	min := delta / 2
	if min == 0 {
		min = 1
	}
	w, err := simnet.New(simnet.Config{
		Params:   pp,
		Seed:     seed,
		DelayMin: min,
		DelayMax: delta,
	})
	if err != nil {
		return nil, 0
	}
	nodes := make([]*baseline.Node, pp.N)
	for i := 0; i < pp.N; i++ {
		nodes[i] = baseline.NewNode()
		w.SetNode(protocol.NodeID(i), nodes[i])
	}
	w.Start()
	t0 := simtime.Real(2 * pp.D)
	w.Scheduler().At(t0, func() { nodes[0].InitiateAgreement("v") })
	w.RunUntil(simtime.Real(10 * pp.DeltaAgr()))

	var lats []float64
	for _, ev := range w.Recorder().ByKind(protocol.EvBaselineDecide) {
		lats = append(lats, float64(ev.RT-t0))
	}
	msgs, _ := w.MessageCount()
	return lats, msgs
}
