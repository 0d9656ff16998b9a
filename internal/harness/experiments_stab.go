package harness

import (
	"fmt"

	"ssbyz/internal/byzantine"
	"ssbyz/internal/check"
	"ssbyz/internal/metrics"
	"ssbyz/internal/protocol"
	"ssbyz/internal/sim"
	"ssbyz/internal/simnet"
	"ssbyz/internal/simtime"
	"ssbyz/internal/transient"
)

// E6Convergence corrupts every node's state at the moment of coherence and
// measures when the first fully-verified agreement completes — the
// self-stabilization claim, bound Δstb = 2Δreset.
func E6Convergence(opt Options) *Result {
	r := &Result{ID: "E6", Title: "Convergence from arbitrary state"}
	pp := protocol.DefaultParams(7)
	seeds := opt.seeds(20)
	t := metrics.NewTable("time to first verified agreement after coherence (in d)",
		"seeds", "mean", "p95", "max", "bound Δstb", "recovered")

	type cell struct {
		conv       simtime.Duration
		ok         bool
		violations int
	}
	cells := sweepSeeds(opt, seeds, func(seed int) cell {
		conv, ok, vio := convergenceTime(opt, pp, int64(seed))
		return cell{conv: conv, ok: ok, violations: vio}
	})
	var times []float64
	recovered := 0
	for _, c := range cells {
		r.Violations += c.violations
		if c.ok {
			recovered++
			times = append(times, dF(float64(c.conv), pp))
		}
	}
	s := metrics.Summarize(times)
	t.AddRow(seeds, s.Mean, s.P95, s.Max, dF(float64(pp.DeltaStb()), pp), fmt.Sprintf("%d/%d", recovered, seeds))
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes,
		"state corrupted at t=0 (every protocol variable, spurious in-flight messages); a correct General retries initiations throughout")
	return r
}

// convergenceTime runs one corruption scenario and returns the real time
// of the first initiation that every correct node decided with full
// validity, ok=false when none succeeded within the run.
func convergenceTime(opt Options, pp protocol.Params, seed int64) (simtime.Duration, bool, int) {
	spacing := pp.Delta0() + 2*pp.D
	runFor := pp.DeltaStb() + 6*pp.DeltaAgr()
	var inits []sim.Initiation
	for i := 0; simtime.Duration(i)*spacing < runFor; i++ {
		inits = append(inits, sim.Initiation{
			At:    simtime.Real(simtime.Duration(i) * spacing),
			G:     0,
			Value: protocol.Value(fmt.Sprintf("c%d", i)),
		})
	}
	sc := sim.Scenario{
		Params:      pp,
		Seed:        seed,
		Initiations: inits,
		Corrupt: func(w *simnet.World) {
			transient.Corrupt(w, transient.Config{Seed: seed + 1000, Severity: 1})
		},
		RunFor: runFor,
	}
	res, err := sim.Run(sc)
	if err != nil {
		return 0, false, 1
	}
	vio := 0
	for i, init := range inits {
		if _, refused := res.InitErrs[i]; refused {
			continue // IG1–IG3 refusals are part of convergence
		}
		decs := decisionsFor(res, 0, init.Value)
		if len(decs) != len(res.Correct) {
			continue
		}
		// Verified: every correct node decided this value in the validity
		// window relative to the initiation.
		ok := true
		var last simtime.Real
		for _, d := range decs {
			if d.RT > init.At+4*simtime.Real(pp.D) || !d.Decided {
				ok = false
				break
			}
			if d.RT > last {
				last = d.RT
			}
		}
		if ok {
			return simtime.Duration(last), true, vio
		}
	}
	return 0, false, vio
}

// decisionsFor filters correct-node decisions for one value, one entry
// per node (the first).
func decisionsFor(res *sim.Result, g protocol.NodeID, v protocol.Value) []sim.Decision {
	var out []sim.Decision
	seen := make(map[protocol.NodeID]bool)
	for _, d := range res.Decisions(g) {
		if d.Decided && d.Value == v && !seen[d.Node] {
			seen[d.Node] = true
			out = append(out, d)
		}
	}
	return out
}

// E7FaultyGeneralAgreement hammers the all-or-none guarantee with an
// equivocating General amplified by colluders across many seeds.
func E7FaultyGeneralAgreement(opt Options) *Result {
	r := &Result{ID: "E7", Title: "Agreement under a faulty General"}
	pp := protocol.DefaultParams(7)
	seeds := opt.seeds(200)
	t := metrics.NewTable("equivocating General outcomes (n=7)",
		"seeds", "all decide", "all abort", "mixed returns", "value splits")

	type outcome int
	const (
		outErr outcome = iota
		outAllDecide
		outAllAbort
		outMixed
		outSplit
	)
	type cell struct {
		out        outcome
		violations int
	}
	cells := sweepSeeds(opt, seeds, func(seed int) cell {
		var c cell
		res, err := sim.Run(sim.Scenario{
			Params: pp,
			Seed:   int64(seed),
			Faulty: map[protocol.NodeID]protocol.Node{
				0: &byzantine.Equivocator{Values: []protocol.Value{"a", "b"}, At: 2 * pp.D},
				6: &byzantine.Yeasayer{},
			},
			RunFor: 5 * pp.DeltaAgr(),
		})
		if err != nil {
			c.violations++
			return c
		}
		c.violations += countViolations(
			check.Agreement(res, 0),
			check.IAUniqueness(res, 0),
			check.Separation(res, 0),
		)
		decs := res.Decisions(0)
		values := make(map[protocol.Value]bool)
		nDec := 0
		for _, d := range decs {
			if d.Decided {
				nDec++
				values[d.Value] = true
			}
		}
		switch {
		case len(values) > 1:
			c.out = outSplit
		case nDec == len(res.Correct):
			c.out = outAllDecide
		case nDec == 0:
			c.out = outAllAbort
		default:
			c.out = outMixed
		}
		return c
	})
	allDecide, allAbort, mixed, splits := 0, 0, 0, 0
	for _, c := range cells {
		r.Violations += c.violations
		switch c.out {
		case outAllDecide:
			allDecide++
		case outAllAbort:
			allAbort++
		case outMixed:
			mixed++
		case outSplit:
			splits++
		}
	}
	t.AddRow(seeds, allDecide, allAbort, mixed, splits)
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes,
		"the Agreement property requires value splits = 0 and mixed returns = 0 whenever any node decides;",
		"all-abort outcomes are permitted for a faulty General")
	if splits > 0 || mixed > 0 {
		r.Violations += splits + mixed
	}
	return r
}

// E8InitiatorAccept measures the primitive's IA-1 bounds in isolation
// (through full-protocol runs, whose I-accept events the primitive owns)
// and the IA-4 uniqueness bound under equivocation.
func E8InitiatorAccept(opt Options) *Result {
	r := &Result{ID: "E8", Title: "Initiator-Accept bounds"}
	seeds := opt.seeds(30)
	t := metrics.NewTable("IA-1 bounds, correct General (in d)",
		"n", "max accept−t0", "bound 4d", "max mutual skew", "bound 2d", "max anchor skew", "bound d")

	type ia1Cell struct {
		win, skew, anchor float64
		violations        int
	}
	ns := opt.nSweep()
	ia1 := sweep(opt, ns, seeds, func(n, seed int) ia1Cell {
		var c ia1Cell
		pp := protocol.DefaultParams(n)
		sc, t0 := correctGeneralScenario(n, int64(seed), 0, 0)
		res, err := sim.Run(sc)
		if err != nil {
			c.violations++
			return c
		}
		c.violations += countViolations(check.IACorrectness(res, 0, t0))
		accepts := res.IAccepts(0)
		var rts, anchors []simtime.Real
		for _, ev := range accepts {
			rts = append(rts, ev.RT)
			anchors = append(anchors, ev.RTauG)
			if w := dF(float64(ev.RT-t0), pp); w > c.win {
				c.win = w
			}
		}
		c.skew = dF(float64(pairwiseSkew(rts)), pp)
		c.anchor = dF(float64(pairwiseSkew(anchors)), pp)
		return c
	})
	for i, n := range ns {
		var maxWin, maxSkew, maxAnchor float64
		for _, c := range ia1[i] {
			r.Violations += c.violations
			maxWin = max(maxWin, c.win)
			maxSkew = max(maxSkew, c.skew)
			maxAnchor = max(maxAnchor, c.anchor)
		}
		t.AddRow(n, maxWin, "4d", maxSkew, "2d", maxAnchor, "1d")
	}
	r.Tables = append(r.Tables, t)

	// IA-4 uniqueness under equivocation.
	pp := protocol.DefaultParams(7)
	uniq := metrics.NewTable("IA-4 uniqueness under an equivocating General (n=7)",
		"seeds", "runs with any I-accept", "IA-4 violations")
	type ia4Cell struct {
		accepted   bool
		violations int
	}
	ia4 := sweepSeeds(opt, seeds, func(seed int) ia4Cell {
		var c ia4Cell
		res, err := sim.Run(sim.Scenario{
			Params: pp,
			Seed:   int64(seed),
			Faulty: map[protocol.NodeID]protocol.Node{
				0: &byzantine.Equivocator{Values: []protocol.Value{"a", "b"}, At: 2 * pp.D},
				6: &byzantine.Yeasayer{},
			},
			RunFor: 5 * pp.DeltaAgr(),
		})
		if err != nil {
			c.violations++
			return c
		}
		c.accepted = len(res.IAccepts(0)) > 0
		c.violations += countViolations(check.IAUniqueness(res, 0), check.IARelay(res, 0))
		return c
	})
	withAccept, vio := 0, 0
	for _, c := range ia4 {
		if c.accepted {
			withAccept++
		}
		vio += c.violations
	}
	uniq.AddRow(seeds, withAccept, vio)
	r.Violations += vio
	r.Tables = append(r.Tables, uniq)
	return r
}

// E9MsgdBroadcast measures TPS-1 (3d accept skew for correct broadcasts)
// and TPS-2 (no acceptance of forged broadcasts).
func E9MsgdBroadcast(opt Options) *Result {
	r := &Result{ID: "E9", Title: "msgd-broadcast bounds"}
	seeds := opt.seeds(30)
	pp := protocol.DefaultParams(7)

	// TPS-1: fault-free run; every decider broadcasts (q, v, 1); group
	// accepts by broadcaster and measure the acceptance spread.
	t := metrics.NewTable("TPS-1 accept skew per correct broadcast (n=7, in d)",
		"seeds", "broadcasts", "max skew", "bound 3d")
	type tps1Cell struct {
		broadcasts int
		maxSkew    float64
		violations int
	}
	tps1 := sweepSeeds(opt, seeds, func(seed int) tps1Cell {
		var c tps1Cell
		sc, _ := correctGeneralScenario(7, int64(seed), 0, 0)
		res, err := sim.Run(sc)
		if err != nil {
			c.violations++
			return c
		}
		byTriple := make(map[string][]simtime.Real)
		res.Rec.ForEachKind(func(ev protocol.TraceEvent) {
			if !res.IsCorrect(ev.Node) || ev.G != 0 {
				return
			}
			key := fmt.Sprintf("%d|%s|%d", ev.P, ev.M, ev.K)
			byTriple[key] = append(byTriple[key], ev.RT)
		}, protocol.EvAccept)
		for _, rts := range byTriple {
			if len(rts) < pp.Quorum() {
				continue // partially-collected triple (post-reset stragglers)
			}
			c.broadcasts++
			if s := dF(float64(pairwiseSkew(rts)), pp); s > c.maxSkew {
				c.maxSkew = s
			}
		}
		// Violations are counted per seed over its own max, never against
		// a cross-seed running max: cells must be order-independent for
		// the Workers determinism guarantee (the sequential harness's
		// running-max count also varied with map iteration order).
		if c.maxSkew > 3 {
			c.violations++
		}
		return c
	})
	broadcasts := 0
	var maxSkew float64
	for _, c := range tps1 {
		r.Violations += c.violations
		broadcasts += c.broadcasts
		maxSkew = max(maxSkew, c.maxSkew)
	}
	t.AddRow(seeds, broadcasts, maxSkew, "3d")
	r.Tables = append(r.Tables, t)

	// TPS-2: echo forgers fabricate second-phase messages for a broadcast
	// that never happened; no correct node may accept it.
	forged := metrics.NewTable("TPS-2 unforgeability under echo forgers (n=7)",
		"seeds", "forged acceptances")
	type tps2Cell struct {
		forged     int
		violations int
	}
	tps2 := sweepSeeds(opt, seeds, func(seed int) tps2Cell {
		var c tps2Cell
		res, err := sim.Run(sim.Scenario{
			Params: pp,
			Seed:   int64(seed),
			Faulty: map[protocol.NodeID]protocol.Node{
				5: &byzantine.EchoForger{G: 0, ForgedP: 1, ForgedV: "forged", K: 1, At: 2 * pp.D},
				6: &byzantine.EchoForger{G: 0, ForgedP: 1, ForgedV: "forged", K: 1, At: 2 * pp.D},
			},
			Initiations: []sim.Initiation{{At: simtime.Real(2 * pp.D), G: 0, Value: "v"}},
			RunFor:      4 * pp.DeltaAgr(),
		})
		if err != nil {
			c.violations++
			return c
		}
		res.Rec.ForEachKind(func(ev protocol.TraceEvent) {
			if res.IsCorrect(ev.Node) && ev.M == "forged" {
				c.forged++
			}
		}, protocol.EvAccept)
		c.violations += countViolations(check.Agreement(res, 0))
		return c
	})
	forgedAccepts := 0
	for _, c := range tps2 {
		r.Violations += c.violations
		forgedAccepts += c.forged
	}
	forged.AddRow(seeds, forgedAccepts)
	r.Violations += forgedAccepts
	r.Tables = append(r.Tables, forged)
	return r
}

// E10MessageComplexity counts messages per agreement across n. The
// paper's bound is O(n²) per msgd-broadcast instance; a fault-free
// agreement runs Θ(n) instances, so the per-agreement total is Θ(n³)
// (measured at scale by S1, DESIGN.md §5).
func E10MessageComplexity(opt Options) *Result {
	r := &Result{ID: "E10", Title: "Message complexity"}
	seeds := opt.seeds(10)
	t := metrics.NewTable("messages per fault-free agreement",
		"n", "total msgs (mean)", "msgs / n²")

	type cell struct {
		total      float64
		ok         bool
		violations int
	}
	ns := opt.nSweep()
	cells := sweep(opt, ns, seeds, func(n, seed int) cell {
		var c cell
		sc, _ := correctGeneralScenario(n, int64(seed), 0, 0)
		res, err := sim.Run(sc)
		if err != nil {
			c.violations++
			return c
		}
		total, _ := res.World.MessageCount()
		c.total = float64(total)
		c.ok = true
		return c
	})
	for i, n := range ns {
		var totals []float64
		for _, c := range cells[i] {
			r.Violations += c.violations
			if c.ok {
				totals = append(totals, c.total)
			}
		}
		mean := metrics.Summarize(totals).Mean
		t.AddRow(n, mean, mean/float64(n*n))
	}
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes,
		"each msgd-broadcast instance is Θ(n²) (the all-to-all pattern of each stage) — the paper's per-primitive bound",
		"per agreement, msgs/n² grows ≈ 3n: Θ(n) deciders each run one broadcast instance, so the fault-free total is Θ(n³) (see S1 / DESIGN.md §5)")
	return r
}
