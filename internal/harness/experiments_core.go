package harness

import (
	"fmt"

	"ssbyz/internal/byzantine"
	"ssbyz/internal/check"
	"ssbyz/internal/metrics"
	"ssbyz/internal/protocol"
	"ssbyz/internal/sim"
	"ssbyz/internal/simtime"
)

// Every experiment below is phrased for the parallel engine in runner.go:
// a pure per-(config, seed) cell function fanned out by sweep, followed by
// an in-order merge on the caller's goroutine. Cells never share state;
// merges never depend on execution order.

// E1ValidityLatency sweeps n with a correct General and measures the
// decision latency of every correct node against the Validity /
// Timeliness-2 window [t0−d, t0+4d].
func E1ValidityLatency(opt Options) *Result {
	r := &Result{ID: "E1", Title: "Validity latency under a correct General"}
	t := metrics.NewTable("decision latency, correct General (latencies in d)",
		"n", "f", "seeds", "mean", "p95", "max", "bound", "all decided")

	type cell struct {
		lats       []float64
		allDecided bool
		note       string
		violations int
	}
	ns := opt.nSweep()
	seeds := opt.seeds(20)
	cells := sweep(opt, ns, seeds, func(n, seed int) cell {
		c := cell{allDecided: true}
		sc, t0 := correctGeneralScenario(n, int64(seed), 0, 0)
		res, err := sim.Run(sc)
		if err != nil {
			c.note = fmt.Sprintf("n=%d seed=%d: %v", n, seed, err)
			c.violations++
			return c
		}
		ls, _, all := decisionLatencies(res, 0, t0)
		c.allDecided = all
		for _, l := range ls {
			c.lats = append(c.lats, dF(l, sc.Params))
		}
		c.violations += countViolations(
			check.Validity(res, 0, t0, "v"),
			check.TimelinessAgreement(res, 0, true),
			check.Termination(res, 0),
		)
		return c
	})
	for i, n := range ns {
		var lats []float64
		allDecided := true
		for _, c := range cells[i] {
			if c.note != "" {
				r.Notes = append(r.Notes, c.note)
			}
			r.Violations += c.violations
			if !c.allDecided {
				allDecided = false
			}
			lats = append(lats, c.lats...)
		}
		s := metrics.Summarize(lats)
		t.AddRow(n, protocol.DefaultParams(n).F, seeds, s.Mean, s.P95, s.Max, "4d", allDecided)
	}
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes, "paper bound: every correct node decides within [t0−d, t0+4d] (Timeliness-2)")
	return r
}

// E2AgreementSkew measures decision-time and anchor skews across correct
// deciders under a correct General and under a faulty (partial) General.
func E2AgreementSkew(opt Options) *Result {
	r := &Result{ID: "E2", Title: "Decision and anchor skew"}
	t := metrics.NewTable("pairwise skew across correct deciders (in d)",
		"general", "seeds", "max decision skew", "bound", "max anchor skew", "bound")

	seeds := opt.seeds(100)
	pp := protocol.DefaultParams(7)

	type cell struct {
		dec, anc   float64
		decided    bool
		violations int
	}

	// Correct General: validity holds, bound 2d / 6d.
	correct := sweepSeeds(opt, seeds, func(seed int) cell {
		var c cell
		sc, _ := correctGeneralScenario(7, int64(seed), 0, 0)
		res, err := sim.Run(sc)
		if err != nil {
			c.violations++
			return c
		}
		rts, anchors := decideTimes(res, 0)
		c.dec = dF(float64(pairwiseSkew(rts)), pp)
		c.anc = dF(float64(pairwiseSkew(anchors)), pp)
		c.violations += countViolations(check.TimelinessAgreement(res, 0, true))
		return c
	})
	var maxDec, maxAnc float64
	for _, c := range correct {
		r.Violations += c.violations
		maxDec = max(maxDec, c.dec)
		maxAnc = max(maxAnc, c.anc)
	}
	t.AddRow("correct", seeds, maxDec, "2d", maxAnc, "6d")

	// Faulty General: partial initiation that still lets a decision form;
	// validity does not hold, bound 3d / 6d.
	faulty := sweepSeeds(opt, seeds, func(seed int) cell {
		var c cell
		scPP := protocol.DefaultParams(7)
		invitees := []protocol.NodeID{1, 2, 3, 4, 5}
		sc := sim.Scenario{
			Params: scPP,
			Seed:   int64(seed),
			Faulty: map[protocol.NodeID]protocol.Node{
				0: &byzantine.PartialGeneral{Invitees: invitees, Value: "pv", At: 2 * scPP.D},
				6: &byzantine.Yeasayer{},
			},
			RunFor: 4 * scPP.DeltaAgr(),
		}
		res, err := sim.Run(sc)
		if err != nil {
			c.violations++
			return c
		}
		rts, anchors := decideTimes(res, 0)
		c.decided = len(rts) > 0
		c.dec = dF(float64(pairwiseSkew(rts)), scPP)
		c.anc = dF(float64(pairwiseSkew(anchors)), scPP)
		c.violations += countViolations(
			check.Agreement(res, 0),
			check.TimelinessAgreement(res, 0, false),
		)
		return c
	})
	maxDec, maxAnc = 0, 0
	decidedRuns := 0
	for _, c := range faulty {
		r.Violations += c.violations
		if c.decided {
			decidedRuns++
		}
		maxDec = max(maxDec, c.dec)
		maxAnc = max(maxAnc, c.anc)
	}
	t.AddRow("faulty(partial)", seeds, maxDec, "3d", maxAnc, "6d")
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes,
		fmt.Sprintf("faulty-General runs reaching a decision: %d/%d (the rest abort consistently — allowed)", decidedRuns, seeds))
	return r
}

// E3TerminationBound stresses Timeliness-3 with a staggering faulty
// General plus colluders, measuring the worst return time.
func E3TerminationBound(opt Options) *Result {
	r := &Result{ID: "E3", Title: "Termination bound"}
	t := metrics.NewTable("worst-case return time (in d)",
		"scenario", "seeds", "max return−invoke", "bound Δagr+7d", "violations")
	seeds := opt.seeds(50)
	pp := protocol.DefaultParams(7)
	bound := dF(float64(pp.DeltaAgr()+7*pp.D), pp)

	scenarios := []struct {
		name   string
		faulty func(seed int64) map[protocol.NodeID]protocol.Node
	}{
		{"partial General", func(int64) map[protocol.NodeID]protocol.Node {
			return map[protocol.NodeID]protocol.Node{
				0: &byzantine.PartialGeneral{Invitees: []protocol.NodeID{1, 2, 3}, Value: "x", At: 2 * pp.D, SupportDelay: pp.D},
			}
		}},
		{"partial General + late supporter", func(int64) map[protocol.NodeID]protocol.Node {
			return map[protocol.NodeID]protocol.Node{
				0: &byzantine.PartialGeneral{Invitees: []protocol.NodeID{1, 2, 3, 4}, Value: "x", At: 2 * pp.D},
				6: &byzantine.LateSupporter{G: 0, Delay: pp.D, HoldLocal: 3 * pp.D},
			}
		}},
		{"equivocator + yeasayer", func(int64) map[protocol.NodeID]protocol.Node {
			return map[protocol.NodeID]protocol.Node{
				0: &byzantine.Equivocator{Values: []protocol.Value{"a", "b"}, At: 2 * pp.D},
				6: &byzantine.Yeasayer{},
			}
		}},
	}

	type cell struct {
		worst      float64
		violations int
	}
	idx := make([]int, len(scenarios))
	for i := range idx {
		idx[i] = i
	}
	cells := sweep(opt, idx, seeds, func(si, seed int) cell {
		var c cell
		res, err := sim.Run(sim.Scenario{
			Params: pp,
			Seed:   int64(seed),
			Faulty: scenarios[si].faulty(int64(seed)),
			RunFor: 5 * pp.DeltaAgr(),
		})
		if err != nil {
			c.violations++
			return c
		}
		c.violations += countViolations(check.Termination(res, 0), check.Agreement(res, 0))
		c.worst = worstReturn(res, 0, pp)
		return c
	})
	for i, sc := range scenarios {
		var worst float64
		vio := 0
		for _, c := range cells[i] {
			vio += c.violations
			worst = max(worst, c.worst)
		}
		t.AddRow(sc.name, seeds, worst, bound, vio)
		r.Violations += vio
	}
	r.Tables = append(r.Tables, t)
	return r
}

// worstReturn is the worst correct-node return time for General g relative
// to the earliest correct invocation, in units of d (0 when no correct
// node invoked).
func worstReturn(res *sim.Result, g protocol.NodeID, pp protocol.Params) float64 {
	invs := res.Invocations(g)
	if len(invs) == 0 {
		return 0
	}
	earliest := invs[0].RT
	for _, ev := range invs {
		if ev.RT < earliest {
			earliest = ev.RT
		}
	}
	var worst float64
	for _, d := range res.Decisions(g) {
		if lat := dF(float64(d.RT-earliest), pp); lat > worst {
			worst = lat
		}
	}
	return worst
}

// E4EarlyStopping measures how the worst-case return time grows with the
// actual number of faults f′ at fixed n: the O(f′) claim. With f′ = 0 the
// run finishes within the validity window; every additional actual fault
// can stretch the round structure by at most ~2Φ.
func E4EarlyStopping(opt Options) *Result {
	r := &Result{ID: "E4", Title: "Early stopping in the actual fault count"}
	n := 16
	if opt.Quick {
		n = 7
	}
	pp := protocol.DefaultParams(n)
	seeds := opt.seeds(20)
	t := metrics.NewTable(fmt.Sprintf("worst return time vs actual faults f′ (n=%d, f=%d, in d)", n, pp.F),
		"f'", "general", "seeds", "max return", "cap (2f+1)Φ", "violations")
	capD := dF(float64(pp.DeltaAgr()), pp)

	fPrimes := make([]int, pp.F+1)
	for i := range fPrimes {
		fPrimes[i] = i
	}
	type cell struct {
		worst      float64
		violations int
	}
	cells := sweep(opt, fPrimes, seeds, func(fPrime, seed int) cell {
		var c cell
		faulty := make(map[protocol.NodeID]protocol.Node, fPrime)
		if fPrime > 0 {
			// The General itself is the first actual fault; it invites
			// only part of the network so rounds are actually needed.
			invitees := make([]protocol.NodeID, 0, pp.N-pp.F)
			for i := 1; i < pp.N-pp.F+1; i++ {
				invitees = append(invitees, protocol.NodeID(i))
			}
			faulty[0] = &byzantine.PartialGeneral{Invitees: invitees, Value: "e4", At: 2 * pp.D, SupportDelay: pp.D}
		}
		for extra := 1; extra < fPrime; extra++ {
			faulty[protocol.NodeID(pp.N-extra)] = &byzantine.LateSupporter{
				G: 0, Delay: pp.D, HoldLocal: simtime.Duration(extra) * 2 * pp.D,
			}
		}
		sc := sim.Scenario{Params: pp, Seed: int64(seed), Faulty: faulty, RunFor: 5 * pp.DeltaAgr()}
		if fPrime == 0 {
			sc.Initiations = []sim.Initiation{{At: simtime.Real(2 * pp.D), G: 0, Value: "e4"}}
		}
		res, err := sim.Run(sc)
		if err != nil {
			c.violations++
			return c
		}
		c.violations += countViolations(check.Agreement(res, 0), check.Termination(res, 0))
		c.worst = worstReturn(res, 0, pp)
		return c
	})
	for i, fPrime := range fPrimes {
		var worst float64
		vio := 0
		for _, c := range cells[i] {
			vio += c.violations
			worst = max(worst, c.worst)
		}
		general := "correct"
		if fPrime > 0 {
			general = "faulty"
		}
		t.AddRow(fPrime, general, seeds, worst, capD, vio)
		r.Violations += vio
	}
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes, "shape: worst return grows with f′ and stays far below the (2f+1)Φ cap for small f′")
	return r
}

// E5MessageDrivenSpeedup runs ss-Byz-Agree and the TPS-87 baseline on
// identical delay distributions and reports the latency ratio across the
// actual-δ sweep — the paper's headline claim.
func E5MessageDrivenSpeedup(opt Options) *Result {
	r := &Result{ID: "E5", Title: "Message-driven vs time-driven rounds"}
	pp := protocol.DefaultParams(7)
	seeds := opt.seeds(20)
	t := metrics.NewTable("mean decision latency from initiation (n=7, in d)",
		"δ/d", "ss-Byz-Agree", "TPS-87 baseline", "speedup")
	deltas := []simtime.Duration{pp.D / 20, pp.D / 10, pp.D / 4, pp.D / 2, 3 * pp.D / 4, pp.D}
	if opt.Quick {
		deltas = []simtime.Duration{pp.D / 10, pp.D}
	}
	cells := sweep(opt, deltas, seeds, func(delta simtime.Duration, seed int) latCell {
		return runLatencyCell(opt, pp, seed, delta)
	})
	for i, delta := range deltas {
		ours, base := mergeLatCells(cells[i], &r.Violations)
		speedup := 0.0
		if ours > 0 {
			speedup = base / ours
		}
		t.AddRow(float64(delta)/float64(pp.D), dF(ours, pp), dF(base, pp), speedup)
	}
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes,
		"ss-Byz-Agree latency tracks the actual δ; the baseline is pinned to whole Φ rounds regardless of δ (time-driven)",
		"no crossover: the message-driven protocol never loses on identical traces")
	return r
}

// latCell is one seed's head-to-head latency measurement: ss-Byz-Agree and
// the TPS-87 baseline on the same delay distribution.
type latCell struct {
	ours, base []float64
	violations int
}

// runLatencyCell measures one (params, seed, δ) cell of the comparison,
// with actual delays in [δ/2, δ].
func runLatencyCell(opt Options, pp protocol.Params, seed int, delta simtime.Duration) latCell {
	var c latCell
	min := delta / 2
	if min == 0 {
		min = 1
	}
	sc, t0 := correctGeneralScenario(pp.N, int64(seed), min, delta)
	res, err := sim.Run(sc)
	if err != nil {
		c.violations++
	} else {
		ls, _, all := decisionLatencies(res, 0, t0)
		if !all {
			c.violations++
		}
		c.ours = ls
		c.violations += countViolations(check.Validity(res, 0, t0, "v"))
	}
	c.base, _ = runBaseline(opt, pp, int64(seed), delta)
	return c
}

// mergeLatCells folds one configuration's cells (in seed order) into the
// two mean latencies, accumulating violations.
func mergeLatCells(cells []latCell, violations *int) (ours, base float64) {
	var oursLats, baseLats []float64
	for _, c := range cells {
		*violations += c.violations
		oursLats = append(oursLats, c.ours...)
		baseLats = append(baseLats, c.base...)
	}
	return metrics.Summarize(oursLats).Mean, metrics.Summarize(baseLats).Mean
}
