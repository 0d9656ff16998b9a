package harness

import (
	"fmt"
	"time"

	"ssbyz/internal/check"
	"ssbyz/internal/clock"
	"ssbyz/internal/core"
	"ssbyz/internal/metrics"
	"ssbyz/internal/nettrans"
	"ssbyz/internal/protocol"
	"ssbyz/internal/scenario"
	"ssbyz/internal/simnet"
	"ssbyz/internal/simtime"
	"ssbyz/internal/transient"
)

// Experiment V3 "Adversarial live campaign": the byte-level threat
// model the paper assumes away — and the live runtimes must re-establish
// from bytes. The paper's model gives every correct pair an authenticated
// bounded-delay channel; a real network gives neither, so the wire layer
// rebuilds the model with a codec, source authentication, incarnation
// epochs, the d-deadline, and duplicate suppression (DESIGN.md §10). V3
// attacks every one of those defenses on the virtual-time pipeline: each
// attack class has an injection counter proving the attack fired and a
// defense counter proving the rejection fired, agreement staying correct
// throughout. It then corrupts RUNNING nodes in place (the paper's
// transient faults, via transient.CorruptRunning inside the event loop)
// across a severity sweep, measuring re-stabilization against
// Δstb = 2Δreset, and closes with a generated campaign of live scenario
// specs — WAN matrices, byte attackers, scripted mid-run faults — checked
// by the split-phase battery and shrunk to replayable counterexamples on
// failure. Everything in V3 is byte-deterministic (fake clock, seeded
// wire), so it lives in All() and gates CI.

// advWindow covers any attack cell V3 runs.
const advWindow = simtime.Real(1 << 30)

// advClass is one attack class of the V3 matrix: the condition
// schedule that injects it, the counter that proves injection, and the
// counter that proves the corresponding defense rejected it.
type advClass struct {
	label      string
	conds      []simnet.Condition
	attacker   protocol.NodeID // -1: attack legal on correct links, all nodes correct
	agreements int             // 2 for stale replay: the tape must age past d
	flush      bool            // step +8d before reading counters (held/late frames)
	injected   string          // Stats counter name proving the attack fired
	defense    string          // Stats counter name proving the defense fired
}

// advClasses enumerates the attack taxonomy. Attacker-scoped classes put
// the byte attacker on a FAULTY node's NIC (an honest machine in a faulty
// slot): eating or mangling a faulty node's traffic is model-legal
// Byzantine behaviour, so the battery over the correct nodes must stay
// clean. Duplication, in-bound reordering, and WAN shaping are legal on
// any link — those cells run all-correct.
func advClasses() []advClass {
	wan := func(m simtime.Duration, rate int) []simnet.Condition {
		return []simnet.Condition{{
			Kind: simnet.CondWAN, From: 0, Until: advWindow,
			Groups: [][]protocol.NodeID{{0, 1}, {2, 3}},
			Matrix: [][]simtime.Duration{{0, m}, {m, 0}},
			Rate:   rate,
		}}
	}
	return []advClass{
		{label: "corrupt", attacker: 1, injected: "corrupt_frames", defense: "decode_drops",
			conds: []simnet.Condition{{Kind: simnet.CondCorrupt, From: 0, Until: advWindow, Nodes: []protocol.NodeID{1}}}},
		{label: "replay-xepoch", attacker: 1, injected: "replay_frames", defense: "epoch_drops",
			conds: []simnet.Condition{{Kind: simnet.CondReplay, From: 0, Until: advWindow, Nodes: []protocol.NodeID{1}, CrossEpoch: true}}},
		{label: "replay-stale", attacker: 1, agreements: 2, flush: true, injected: "replay_frames", defense: "late_drops",
			conds: []simnet.Condition{{Kind: simnet.CondReplay, From: 0, Until: advWindow, Nodes: []protocol.NodeID{1}}}},
		{label: "forge", attacker: 1, injected: "forge_frames", defense: "auth_drops",
			conds: []simnet.Condition{{Kind: simnet.CondForge, From: 0, Until: advWindow, Nodes: []protocol.NodeID{1}}}},
		{label: "duplicate", attacker: -1, injected: "dup_frames", defense: "dup_drops",
			conds: []simnet.Condition{{Kind: simnet.CondDuplicate, From: 0, Until: advWindow, Copies: 2}}},
		{label: "reorder-hostile", attacker: 1, flush: true, injected: "reorder_holds", defense: "late_drops",
			conds: []simnet.Condition{{Kind: simnet.CondReorder, From: 0, Until: advWindow, Nodes: []protocol.NodeID{1}, Jitter: 3 * liveD}}},
		{label: "wan-clamp", attacker: -1, injected: "sent", defense: "clamps",
			conds: wan(2*liveD, 0)},
		{label: "rate-cap", attacker: -1, injected: "sent", defense: "rate_deferrals",
			conds: []simnet.Condition{{
				Kind: simnet.CondWAN, From: 0, Until: advWindow,
				Groups: [][]protocol.NodeID{{0, 1, 2, 3}},
				Matrix: [][]simtime.Duration{{0}},
				Rate:   1,
			}}},
	}
}

// statCounter reads one Stats counter by its CounterNames name.
func statCounter(s nettrans.Stats, name string) int64 {
	v := s.Counters()
	for i, n := range nettrans.CounterNames {
		if n == name {
			return v[i]
		}
	}
	return -1
}

// advCell is one attack-class run: injection and defense counts plus the
// usual verdicts.
type advCell struct {
	injected, defense int64
	stats             nettrans.Stats
	violations        int
	errs              []string
}

// runAdvCell runs the class's agreements on one fresh virtual cluster.
func runAdvCell(class advClass, seed int64) advCell {
	var c advCell
	fail := func(format string, args ...any) advCell {
		c.violations++
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
		return c
	}
	pp := protocol.DefaultParams(4)
	pp.D = liveD
	cfg := nettrans.ClusterConfig{
		Params: pp, Tick: liveTick, Transport: nettrans.TransportUDP,
		Conditions: class.conds, Seed: seed, Clock: clock.NewFake(time.Time{}),
	}
	if class.attacker >= 0 {
		cfg.Faulty = map[protocol.NodeID]protocol.Node{class.attacker: core.NewNode()}
	}
	cl, err := nettrans.NewCluster(cfg)
	if err != nil {
		return fail("cluster: %v", err)
	}
	defer cl.Stop()

	budget := time.Duration(pp.DeltaAgr()+20*pp.D) * liveTick
	agreements := class.agreements
	if agreements == 0 {
		agreements = 1
	}
	var inits []check.LiveInitiation
	for a := 0; a < agreements; a++ {
		g := protocol.NodeID(2 * a) // 0, then 2 — both correct (attacker is 1)
		v := protocol.Value(fmt.Sprintf("v3-%s-%d", class.label, a))
		t0, _, err := cl.Initiate(g, 0, v)
		if err != nil {
			return fail("initiate g=%d: %v", g, err)
		}
		if done := cl.AwaitDecisions(g, v, budget); done != len(cl.Correct()) {
			return fail("%s: %d/%d correct nodes decided", class.label, done, len(cl.Correct()))
		}
		inits = append(inits, check.LiveInitiation{G: g, V: v, T0: t0})
	}
	if class.flush {
		cl.StepUntil(func() bool { return false },
			simtime.Duration(cl.NowTicks())+8*pp.D)
	}
	c.stats = cl.Stats()
	c.injected = statCounter(c.stats, class.injected)
	c.defense = statCounter(c.stats, class.defense)
	if c.injected <= 0 {
		fail("%s: attack counter %s never fired: %+v", class.label, class.injected, c.stats)
	}
	if c.defense <= 0 {
		fail("%s: defense counter %s never fired: %+v", class.label, class.defense, c.stats)
	}
	lr := &check.LiveResult{Result: cl.Result(simtime.Duration(cl.NowTicks()) + 1)}
	vs := lr.Battery(inits)
	c.violations += len(vs)
	for _, v := range vs {
		c.errs = append(c.errs, class.label+": "+v.String())
	}
	return c
}

// recovCell is one in-situ transient-fault recovery run.
type recovCell struct {
	restab     float64 // observed re-stabilization, ticks
	budget     float64 // Δstb in the cell's params
	violations int
	errs       []string
}

// runRecoveryCell corrupts EVERY correct node of a running virtual
// cluster in place — transient.CorruptRunning executed inside each node's
// event loop, the same path the node daemon's POST /fault takes — and
// measures how long until the planted phantom records are swept on all of
// them. The observed time must land within Δstb = 2Δreset, and a probe
// agreement after the window plus the battery over the post-recovery
// suffix prove the system behaves as if the transient never happened.
func runRecoveryCell(severityPermille int, seed int64) recovCell {
	var c recovCell
	fail := func(format string, args ...any) recovCell {
		c.violations++
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
		return c
	}
	pp := protocol.DefaultParams(4)
	pp.D = liveD
	c.budget = float64(pp.DeltaStb())
	fake := clock.NewFake(time.Time{})
	cl, err := nettrans.NewCluster(nettrans.ClusterConfig{
		Params: pp, Tick: liveTick, Transport: nettrans.TransportUDP, Seed: seed,
		Clock: fake,
	})
	if err != nil {
		return fail("cluster: %v", err)
	}
	defer cl.Stop()

	budget := time.Duration(pp.DeltaAgr()+20*pp.D) * liveTick
	runAgreement := func(g protocol.NodeID, v protocol.Value) (simtime.Real, bool) {
		t0, _, err := cl.Initiate(g, 0, v)
		if err != nil {
			fail("initiate g=%d: %v", g, err)
			return 0, false
		}
		if done := cl.AwaitDecisions(g, v, budget); done != len(cl.Correct()) {
			fail("%q: %d/%d correct nodes decided", v, done, len(cl.Correct()))
			return 0, false
		}
		return t0, true
	}

	// A healthy agreement first: the corruption hits a warm system.
	if _, ok := runAgreement(0, "pre-fault"); !ok {
		return c
	}

	const markG = protocol.NodeID(3)
	corruptAt := cl.NowTicks()
	for _, id := range cl.Correct() {
		id := id
		cl.DoWait(id, func(n protocol.Node) {
			transient.CorruptRunning(n.(*core.Node), pp, transient.Config{
				Seed:     seed*100 + int64(id),
				Severity: float64(severityPermille) / 1000,
				Marks:    []protocol.NodeID{markG},
			}, simtime.Local(cl.NowTicks()))
		})
	}
	marksCleared := func() bool {
		cleared := true
		for _, id := range cl.Correct() {
			id := id
			cl.DoWait(id, func(n protocol.Node) {
				if returned, _, _ := n.(*core.Node).Result(markG); returned {
					cleared = false
				}
			})
		}
		return cleared
	}
	if marksCleared() {
		return fail("severity %d‰: phantom marks were not planted", severityPermille)
	}

	deadline := corruptAt + simtime.Real(pp.DeltaStb())
	recovered := false
	for steps := 0; cl.NowTicks() < deadline; steps++ {
		if steps%32 == 0 && marksCleared() {
			recovered = true
			break
		}
		if !fake.Step() {
			break
		}
	}
	if !recovered && !marksCleared() {
		return fail("severity %d‰: phantom state survived Δstb = %d ticks", severityPermille, pp.DeltaStb())
	}
	c.restab = float64(cl.NowTicks() - corruptAt)
	if c.restab <= 0 || c.restab > c.budget {
		fail("severity %d‰: re-stabilization %v ticks outside (0, Δstb=%v]", severityPermille, c.restab, c.budget)
	}

	// Let the full Δstb window pass, then probe: the battery over the
	// post-recovery suffix measures the promised post-stabilization
	// behaviour.
	cl.StepUntil(func() bool { return false }, simtime.Duration(deadline))
	suffixStart := cl.NowTicks()
	t0, ok := runAgreement(2, "post-fault")
	if !ok {
		return c
	}
	res := cl.Result(simtime.Duration(cl.NowTicks()) + 1)
	var suffix []protocol.TraceEvent
	for _, ev := range res.Rec.Events() {
		if ev.RT >= suffixStart {
			suffix = append(suffix, ev)
		}
	}
	lr := &check.LiveResult{Result: nettrans.BuildResult(pp, suffix, res.Correct, simtime.Duration(cl.NowTicks())+1)}
	vs := lr.Battery([]check.LiveInitiation{{G: 2, V: "post-fault", T0: t0}})
	c.violations += len(vs)
	for _, v := range vs {
		c.errs = append(c.errs, fmt.Sprintf("severity %d‰ post-recovery: %s", severityPermille, v.String()))
	}
	return c
}

// V3CampaignPlan returns the committee sizes and per-size generated-spec
// counts of the V3 live campaign.
func V3CampaignPlan(quick bool) (ns, counts []int) {
	if quick {
		return []int{4, 7}, []int{8, 4}
	}
	return []int{4, 7}, []int{32, 12}
}

// V3CampaignSeed derives the generator seed of live spec i at committee
// size n; scenario.GenerateLive(V3CampaignSeed(n, i), n) regenerates the
// exact spec, the same replay discipline S2 uses. The high bit keeps the
// V3 stream disjoint from S2's CampaignSeed space.
func V3CampaignSeed(n, i int) int64 { return 1<<62 | int64(n)<<32 | int64(i) }

// v3CampCell is the outcome of one generated live scenario.
type v3CampCell struct {
	faults, attacks, conditions int
	sent, attackFrames, drops   int64
	restabRatios                []float64
	violations                  int
	minimized                   []byte
}

// runV3CampaignCell generates live spec (n, idx), runs it on the virtual
// runtime, checks the split-phase battery, and shrinks on failure.
func runV3CampaignCell(n, idx int) v3CampCell {
	sp := scenario.GenerateLive(V3CampaignSeed(n, idx), n)
	var c v3CampCell
	c.faults = len(sp.Faults)
	c.conditions = len(sp.Conditions)
	for _, cond := range sp.Conditions {
		if simnet.WireLevel(cond.Kind) {
			c.attacks++
		}
	}
	run, err := scenario.RunLive(sp)
	if err != nil {
		c.violations++
		c.minimized = sp.Marshal()
		return c
	}
	s := run.Stats
	c.sent = s.Sent
	c.attackFrames = s.CorruptFrames + s.ReplayFrames + s.ForgeFrames + s.DupFrames + s.ReorderHolds
	c.drops = s.DecodeDrops + s.EpochDrops + s.AuthDrops + s.LateDrops + s.DupDrops + s.SeqStale
	for _, rs := range run.Restab {
		if rs.Ticks >= 0 {
			c.restabRatios = append(c.restabRatios, float64(rs.Ticks)/float64(rs.Budget))
		}
	}
	viols := scenario.CheckLive(run, sp)
	c.violations = len(viols)
	if c.violations > 0 {
		min := scenario.Shrink(sp, func(cand scenario.Spec) bool {
			return len(scenario.RunCheckAny(cand)) > 0
		})
		c.minimized = min.Marshal()
	}
	return c
}

// V3AdversarialLive is the deterministic adversarial live campaign: the
// per-class attack/defense matrix, the in-situ transient-fault severity
// sweep, and the generated live-spec campaign, all on the virtual-time
// pipeline — every number byte-identical across runs, hosts, and worker
// counts.
func V3AdversarialLive(opt Options) *Result {
	r := &Result{ID: "V3", Title: "Adversarial live campaign: byte-level attacks and in-situ recovery under virtual time"}
	pp := protocol.DefaultParams(4)
	pp.D = liveD

	// Phase 1: the attack/defense matrix.
	seeds := 2
	if !opt.Quick {
		seeds = 4
	}
	classes := advClasses()
	grid := sweep(opt, classes, seeds, func(class advClass, seed int) advCell {
		return runAdvCell(class, 7000+int64(seed))
	})
	mt := metrics.NewTable(
		fmt.Sprintf("attack/defense matrix (n=4, d = %d ticks, virtual time; counters summed over seeds)", liveD),
		"class", "seeds", "attack counter", "injected", "defense counter", "rejected", "violations")
	for ci, class := range classes {
		var injected, defense int64
		violations := 0
		for _, c := range grid[ci] {
			injected += c.injected
			defense += c.defense
			violations += c.violations
			for _, e := range c.errs {
				r.Notes = append(r.Notes, e)
			}
		}
		mt.AddRow(class.label, seeds, class.injected, injected, class.defense, defense, violations)
		r.Violations += violations
	}
	r.Tables = append(r.Tables, mt)

	// Phase 2: in-situ transient-fault recovery across severities.
	severities := []int{250, 600, 1000}
	rSeeds := 2
	if !opt.Quick {
		rSeeds = 3
	}
	rGrid := sweep(opt, severities, rSeeds, func(sev, seed int) recovCell {
		return runRecoveryCell(sev, 9000+int64(sev)*10+int64(seed))
	})
	rt := metrics.NewTable(
		fmt.Sprintf("in-situ recovery: every correct node of a RUNNING cluster corrupted mid-run (n=4, Δstb = %d ticks)", pp.DeltaStb()),
		"severity ‰", "seeds", "restab p50 ticks", "restab max ticks", "max restab/Δstb", "violations")
	for si, sev := range severities {
		var restabs []float64
		violations := 0
		for _, c := range rGrid[si] {
			if c.restab > 0 {
				restabs = append(restabs, c.restab)
			}
			violations += c.violations
			for _, e := range c.errs {
				r.Notes = append(r.Notes, e)
			}
		}
		s := metrics.Summarize(restabs)
		rt.AddRow(sev, rSeeds,
			fmt.Sprintf("%.0f", s.P50),
			fmt.Sprintf("%.0f", s.Max),
			fmt.Sprintf("%.3f", s.Max/float64(pp.DeltaStb())),
			violations)
		r.Violations += violations
	}
	r.Tables = append(r.Tables, rt)

	// Phase 3: generated live campaign — WAN matrices, byte attackers,
	// scripted mid-run faults, split-phase battery, shrink on failure.
	ns, counts := V3CampaignPlan(opt.Quick)
	type cfg struct{ n, count int }
	cfgs := make([]cfg, len(ns))
	maxCount := 0
	for i, n := range ns {
		cfgs[i] = cfg{n, counts[i]}
		if counts[i] > maxCount {
			maxCount = counts[i]
		}
	}
	cells := sweep(opt, cfgs, maxCount, func(c cfg, idx int) *v3CampCell {
		if idx >= c.count {
			return nil
		}
		cell := runV3CampaignCell(c.n, idx)
		return &cell
	})
	ct := metrics.NewTable(
		"generated live campaign (virtual runtime, split-phase battery, shrink on failure)",
		"n", "f", "specs", "wire attacks", "faults", "frames sent", "attack frames",
		"defense drops", "max restab/Δstb", "violations")
	var examples []Counterexample
	for i, n := range ns {
		npp := protocol.DefaultParams(n)
		var agg v3CampCell
		var ratios []float64
		for idx, c := range cells[i] {
			if c == nil {
				continue
			}
			agg.attacks += c.attacks
			agg.faults += c.faults
			agg.sent += c.sent
			agg.attackFrames += c.attackFrames
			agg.drops += c.drops
			agg.violations += c.violations
			ratios = append(ratios, c.restabRatios...)
			if c.minimized != nil {
				examples = append(examples, Counterexample{
					N: n, Index: idx, Violations: c.violations, Spec: c.minimized,
				})
			}
		}
		maxRatio := 0.0
		for _, x := range ratios {
			if x > maxRatio {
				maxRatio = x
			}
		}
		ct.AddRow(n, npp.F, counts[i], agg.attacks, agg.faults, agg.sent,
			agg.attackFrames, agg.drops, fmt.Sprintf("%.3f", maxRatio), agg.violations)
		r.Violations += agg.violations
	}
	r.Tables = append(r.Tables, ct)

	r.Notes = append(r.Notes,
		"every attack class is proven twice: the attack counter shows the injection fired, the defense counter shows the wire pipeline rejected it, and the battery shows agreement survived — the paper's channel assumptions re-established from bytes (DESIGN.md §10)",
		"the recovery sweep corrupts RUNNING nodes through transient.CorruptRunning inside their event loops — the same path the node daemon's POST /fault takes — and the observed re-stabilization stays within Δstb = 2Δreset at every severity",
		"live spec i at size n regenerates from scenario.GenerateLive(V3CampaignSeed(n,i), n); a violating spec is shrunk 1-minimal and replays with `ssbyz-bench -replay spec.json`",
	)
	for _, ex := range examples {
		r.Notes = append(r.Notes, fmt.Sprintf(
			"COUNTEREXAMPLE n=%d live-spec=%d (%d violations), minimized spec: %s",
			ex.N, ex.Index, ex.Violations, compactJSON(ex.Spec)))
	}
	if dir := counterexampleDir(); dir != "" && len(examples) > 0 {
		if err := exportCounterexamples(dir, "V3", examples); err != nil {
			r.Notes = append(r.Notes, "counterexample export failed: "+err.Error())
		}
	}
	return r
}
