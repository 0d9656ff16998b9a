package harness

import (
	"fmt"
	"time"

	"ssbyz/internal/check"
	"ssbyz/internal/clock"
	"ssbyz/internal/metrics"
	"ssbyz/internal/nettrans"
	"ssbyz/internal/protocol"
	"ssbyz/internal/service"
	"ssbyz/internal/simnet"
	"ssbyz/internal/simtime"
)

// Experiments V1/V2 "Deterministic live campaign": the live runtimes — the
// socket-shaped nettrans pipeline (V1) and the replicated-log service over
// it (V2) — run under virtual time on a clock.Fake over the deterministic
// in-memory wire (DESIGN.md §9). The SAME code as L1/L2 executes above the
// transport: wire codec, source authentication, epoch checks, deadline
// drops, chaos schedules, event loops, the pump. What changes is time:
// every timer fires in (deadline, seq) order and every cascade drains
// before the next, so — unlike L1/L2, whose wall-clock numbers vary with
// the host — these cells are exactly reproducible and their columns are
// reported in ticks and multiples of d. That is why V1/V2 live in All()
// and the default `go test ./...` while L1/L2 need `-live`: a deterministic
// live campaign can gate CI byte-for-byte.

// virtCell is one virtual live cluster run (the deterministic counterpart
// of liveCell: same pipeline, no wall-clock fields).
type virtCell struct {
	lats       []float64 // per-node decide latency, ticks
	stats      nettrans.Stats
	violations int
	errs       []string
}

// runVirtualCell runs one agreement on a fresh virtual cluster. All
// randomness is the wire seed; equal arguments give equal cells, which is
// what lets the sweep fan out across workers without losing determinism.
func runVirtualCell(n int, transport string, conds []simnet.Condition,
	faulty map[protocol.NodeID]protocol.Node, seed int64, legacy bool) virtCell {
	var c virtCell
	fail := func(format string, args ...any) virtCell {
		c.violations++
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
		return c
	}
	pp := protocol.DefaultParams(n)
	pp.D = liveD
	cl, err := nettrans.NewCluster(nettrans.ClusterConfig{
		Params: pp, Tick: liveTick, Transport: transport,
		Conditions: conds, Faulty: faulty,
		Clock: clock.NewFake(time.Time{}), Seed: seed,
		LegacyDatagramPerFrame: legacy,
	})
	if err != nil {
		return fail("cluster: %v", err)
	}
	defer cl.Stop()

	const value = protocol.Value("v1")
	t0, _, err := cl.Initiate(0, 0, value)
	if err != nil {
		return fail("initiate: %v", err)
	}
	budget := time.Duration(pp.DeltaAgr()+20*pp.D) * liveTick
	deciders := cl.AwaitDecisions(0, value, budget)
	c.stats = cl.Stats()

	res := cl.Result(simtime.Duration(cl.NowTicks()) + 1)
	lr := &check.LiveResult{Result: res}
	c.lats = lr.DecideLatencies(0, value, t0)
	if deciders != len(res.Correct) || len(c.lats) != len(res.Correct) {
		// Unlike L1 there is no retry path: virtual time cannot be starved
		// by the host, so non-decision here is always protocol signal.
		return fail("only %d/%d correct nodes decided under virtual time", deciders, len(res.Correct))
	}
	vs := lr.Battery([]check.LiveInitiation{{G: 0, V: value, T0: t0}})
	c.violations += len(vs)
	for _, v := range vs {
		c.errs = append(c.errs, v.String())
	}
	return c
}

// virtRow aggregates a (config, seeds) series into one deterministic row.
func virtRow(t *metrics.Table, label string, n, seeds int, cells []virtCell, r *Result) {
	pp := protocol.DefaultParams(n)
	var lats []float64
	var sent, late, chaosDrops int64
	violations := 0
	for _, c := range cells {
		lats = append(lats, c.lats...)
		sent += c.stats.Sent
		late += c.stats.LateDrops
		chaosDrops += c.stats.ChaosDrops
		violations += c.violations
		for _, e := range c.errs {
			r.Notes = append(r.Notes, fmt.Sprintf("%s n=%d: %s", label, n, e))
		}
	}
	s := metrics.Summarize(lats)
	t.AddRow(label, n, pp.F, seeds,
		fmt.Sprintf("%.0f", s.P50),
		fmt.Sprintf("%.0f", s.P95),
		fmt.Sprintf("%.0f", s.Max),
		fmt.Sprintf("%.3f", s.P50/float64(liveD)),
		float64(sent)/float64(seeds),
		late, chaosDrops, violations)
	r.Violations += violations
}

// virtConfig is one V1 sweep cell configuration.
type virtConfig struct {
	label     string
	n         int
	transport string
	conds     []simnet.Condition
	faulty    map[protocol.NodeID]protocol.Node
}

// V1VirtualLive is the deterministic mirror of L1: the same committee
// sweep, TCP baseline, and chaos replay, over the virtual wire. Cells run
// on the shared worker pool — each owns its fake clock, so parallelism
// cannot perturb the cells, and the report is byte-identical for every
// Workers setting and every run.
func V1VirtualLive(opt Options) *Result {
	r := &Result{ID: "V1", Title: "Deterministic live campaign: the socket pipeline under virtual time"}
	seeds := 2
	if !opt.Quick {
		seeds = 5
	}
	horizon := simtime.Real(simtime.Duration(10000) * liveD)
	configs := []virtConfig{
		{"udp", 4, nettrans.TransportUDP, nil, nil},
		{"udp", 7, nettrans.TransportUDP, nil, nil},
		{"udp", 16, nettrans.TransportUDP, nil, nil},
		{"tcp", 4, nettrans.TransportTCP, nil, nil},
		{"udp+chaos", 7, nettrans.TransportUDP,
			[]simnet.Condition{
				{Kind: simnet.CondJitter, From: 0, Until: horizon, Jitter: liveD / 4},
				{Kind: simnet.CondPartition, From: 0, Until: horizon, Nodes: []protocol.NodeID{6}},
			},
			map[protocol.NodeID]protocol.Node{6: nil}},
	}
	grid := sweep(opt, configs, seeds, func(cfg virtConfig, seed int) virtCell {
		return runVirtualCell(cfg.n, cfg.transport, cfg.conds, cfg.faulty,
			int64(cfg.n)*1000+int64(seed), opt.LegacyWire)
	})
	t := metrics.NewTable(
		fmt.Sprintf("virtual-time live agreement (d = %d ticks; all columns deterministic)", liveD),
		"transport", "n", "f", "seeds", "p50 ticks", "p95 ticks", "max ticks", "p50 (d)",
		"msgs/agr", "late drops", "chaos drops", "violations")
	for ci, cfg := range configs {
		virtRow(t, cfg.label, cfg.n, seeds, grid[ci], r)
	}
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes,
		"same pipeline as L1 — wire codec, authentication, deadline drops, chaos — but timers fire on a fake clock over the deterministic in-memory wire, so every number above is exact and reproducible (DESIGN.md §9)",
		"latencies are in ticks of virtual time, not wall milliseconds: the run is a schedule, not a measurement, and it is byte-identical across runs, hosts, and worker counts",
		"the chaos row replays the L1 ConditionSchedule (jitter everywhere + partition around a crashed node) with a clean battery — deterministically, every time",
	)
	return r
}

// V2VirtualService is the deterministic mirror of L2: the replicated-log
// service with footnote-9 concurrent sessions, driven by the pump under
// virtual time.
func V2VirtualService(opt Options) *Result {
	r := &Result{ID: "V2", Title: "Deterministic live service: replicated log under virtual time"}
	seeds, entries := 2, 6
	if !opt.Quick {
		seeds, entries = 3, 12
	}
	pp := protocol.DefaultParams(4)
	pp.D = liveD
	t := metrics.NewTable(
		fmt.Sprintf("replicated-log service over the virtual wire (n=4, d = %d ticks, %d entries)", liveD, entries),
		"transport", "sessions", "seeds", "committed", "p50 commit ticks", "violations")
	type v2Out struct {
		committed  int
		lats       []float64
		violations int
		errs       []string
	}
	sessionsSweep := []int{1, 8}
	grid := sweep(opt, sessionsSweep, seeds, func(sessions, seed int) v2Out {
		var out v2Out
		arrivals := service.PoissonArrivals(int64(100*sessions+seed),
			simtime.Real(2*pp.D), pp.D/2, entries)
		res, err := service.RunLive(service.LiveConfig{
			Params:     pp,
			Tick:       liveTick,
			Sessions:   sessions,
			QueueLimit: entries, // the spot-check drains everything; S3 owns shedding
			Clock:      clock.NewFake(time.Time{}),
			Seed:       int64(sessions)*100 + int64(seed),
		}, []service.Workload{{G: 0, Arrivals: arrivals}},
			time.Duration(pp.DeltaStb())*liveTick)
		if err != nil {
			out.violations++
			out.errs = append(out.errs, err.Error())
			return out
		}
		lg := res.Logs[0]
		out.committed = len(lg.Committed)
		for _, e := range lg.Committed {
			out.lats = append(out.lats, float64(e.CommittedAt-e.ArrivedAt))
		}
		if lg.Failed != 0 || lg.Dropped != 0 {
			out.violations++
			out.errs = append(out.errs, fmt.Sprintf("failed=%d dropped=%d", lg.Failed, lg.Dropped))
		}
		vs := service.Battery(res.Res, res.Logs)
		out.violations += len(vs)
		for _, v := range vs {
			out.errs = append(out.errs, v.String())
		}
		return out
	})
	for ci, sessions := range sessionsSweep {
		var committed float64
		var lats []float64
		violations := 0
		for _, out := range grid[ci] {
			committed += float64(out.committed)
			lats = append(lats, out.lats...)
			violations += out.violations
			for _, e := range out.errs {
				r.Notes = append(r.Notes, fmt.Sprintf("sessions=%d: %s", sessions, e))
			}
		}
		s := metrics.Summarize(lats)
		t.AddRow("virtual", sessions, seeds, committed/float64(seeds),
			fmt.Sprintf("%.0f", s.P50), violations)
		r.Violations += violations
	}
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes,
		"the L2 burst as a deterministic schedule: the pump advances the fake clock a quarter-d at a time, sessions multiplex over the virtual wire, and commit latencies come out in exact ticks",
	)
	return r
}
