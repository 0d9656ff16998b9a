package harness

import (
	"fmt"
	"math/rand"

	"ssbyz/internal/check"
	"ssbyz/internal/metrics"
	"ssbyz/internal/protocol"
	"ssbyz/internal/sim"
	"ssbyz/internal/simnet"
	"ssbyz/internal/simtime"
)

// A1BlockRWindow is the ablation for the one documented deviation from
// Fig. 1: the prompt-decision window of Block R. The paper's text says
// τq − τG ≤ 4d, but its own Claim 1 timeline lets a correct node's N4
// trail its recording time by up to 5d (IA-1D: rt(τG) can be t0−d while
// the I-accept lands at t0+4d). Uniform-random delays never realize the
// (4d, 5d] corner, so the ablation runs two regimes:
//
//   - random: delays uniform in [d/4, d] — both windows pass;
//   - adversarial: a legal delay schedule that pins one victim's
//     recording time at t0−d (fast Initiator and two fast supports) while
//     every quorum leg crawls at the full d, pushing the victim's own
//     I-accept gap past 4d. The literal 4d window then drops the prompt
//     decision and the victim misses the t0+4d validity bound.
func A1BlockRWindow(opt Options) *Result {
	r := &Result{ID: "A1", Title: "Ablation: Block R prompt-decision window (4d vs 5d)"}
	seeds := opt.seeds(50)
	t := metrics.NewTable("fault-free validity misses by window and delay regime (n=7)",
		"window", "regime", "seeds", "validity misses", "worst own-node gap (d)")

	type regime struct {
		window      simtime.Duration
		adversarial bool
	}
	var regimes []regime
	for _, window := range []simtime.Duration{4, 5} {
		for _, adversarial := range []bool{false, true} {
			regimes = append(regimes, regime{window, adversarial})
		}
	}
	cells := sweep(opt, regimes, seeds, func(rg regime, seed int) a1Cell {
		return a1Run(opt, rg.window, rg.adversarial, seed)
	})
	for i, rg := range regimes {
		misses := 0
		var worstGap float64
		for _, c := range cells[i] {
			if c.miss {
				misses++
			}
			worstGap = max(worstGap, c.gap)
		}
		name := "random"
		if rg.adversarial {
			name = "adversarial"
		}
		t.AddRow(fmt.Sprintf("%dd", rg.window), name, seeds, misses, worstGap)
		// Only the repo's 5d configuration must be violation-free; the
		// 4d rows exist to show the failure.
		if rg.window == 5 {
			r.Violations += misses
		}
	}
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes,
		"under the adversarial-yet-legal schedule the victim's own-node gap exceeds 4d, so the literal Fig. 1 window drops the prompt decision and Timeliness-2 breaks; the repo's 5d window is the constant consistent with Claim 1 / IA-1D",
		"safety is unaffected either way: Block R still requires an I-accept, and IA-4 bounds anchors across values")
	return r
}

// a1Cell is one (window, regime, seed) outcome: whether the run missed
// the validity window, and the worst observed rt(τq)−rt(τG) at an
// I-accept, in units of d.
type a1Cell struct {
	miss bool
	gap  float64
}

// a1Run executes one seed of one (window, regime) cell.
func a1Run(opt Options, window simtime.Duration, adversarial bool, seed int) a1Cell {
	var c a1Cell
	pp := protocol.DefaultParams(7)
	pp.BlockRWindow = window * pp.D
	t0 := simtime.Real(2 * pp.D)
	sc := sim.Scenario{
		Params:      pp,
		Seed:        int64(seed),
		Initiations: []sim.Initiation{{At: t0, G: 6, Value: "v"}},
		RunFor:      simtime.Duration(t0) + 3*pp.DeltaAgr(),
	}
	if adversarial {
		sc.DelayMin = 1
		sc.DelayMax = pp.D
		sc.Delay = a1AdversarialDelay(pp)
	} else {
		sc.DelayMin = pp.D / 4
		sc.DelayMax = pp.D
	}
	res, err := sim.Run(sc)
	if err != nil {
		c.miss = true
		return c
	}
	c.miss = len(check.Validity(res, 6, t0, "v")) > 0
	for _, ev := range res.IAccepts(6) {
		if gap := float64(ev.RT-ev.RTauG) / float64(pp.D); gap > c.gap {
			c.gap = gap
		}
	}
	return c
}

// a1AdversarialDelay builds the legal worst-case schedule realizing the
// Claim 1 / IA-1D corner. Node 0 is the victim:
//
//   - the General's Initiator reaches the victim instantly but everyone
//     else after the full d, so the victim's Block K recording time is
//     t0 − d while the rest of the wave starts a whole d later;
//   - every support toward the victim travels instantly, keeping the
//     victim's Block L shortest-window candidate at or below its Block K
//     value (the max rule never raises rt(τG) above t0 − d);
//   - every other message (support among the rest, all approves, all
//     readys) takes the full d, so the victim's ready quorum — and with
//     it Line N4 — lands at t0 + 4d.
//
// The victim's own-node gap rt(τq) − rt(τG) is then 5d − ε: a correct
// node, a correct General, every delay within the legal [0, d] — and the
// literal 4d Block R window rejects the prompt decision.
func a1AdversarialDelay(pp protocol.Params) simnet.DelayFn {
	const victim = protocol.NodeID(0)
	fast := simtime.Duration(pp.D / 100)
	return func(from, to protocol.NodeID, m protocol.Message, _ *rand.Rand) simtime.Duration {
		switch {
		case m.Kind == protocol.Initiator && to == victim:
			return fast
		case m.Kind == protocol.Support && to == victim:
			return fast
		default:
			return pp.D
		}
	}
}
