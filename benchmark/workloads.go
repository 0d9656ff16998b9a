package main

import (
	"fmt"
	"strings"
	"time"

	"ssbyz/internal/check"
	"ssbyz/internal/core"
	"ssbyz/internal/nettrans"
	"ssbyz/internal/protocol"
	"ssbyz/internal/scenario"
	"ssbyz/internal/service"
	"ssbyz/internal/sim"
	"ssbyz/internal/simtime"
)

// sizes fixes the shape of every workload. full is what BENCHMARK.json is
// measured at; toy is the smoke test's, the same code on worlds small
// enough to finish all five workloads in seconds.
type sizes struct {
	scaleN     int // sim-scale committee
	campaignWU int // sim-campaign warm-up scenarios per set-up
	agreeN     int // live-agree committee
	// agreeWait bounds the wait for one live agreement's deciders: 40d at
	// full size, where the paper's validity bound is 4d.
	agreeWait   time.Duration
	serviceRate int // live-service proposals per second
	serviceWU   int // live-service warm-up proposals per set-up
	pumpN       int // wire-pump committee
	pumpWU      int // wire-pump warm-up broadcasts
	pumpCount   int // wire-pump broadcasts per timed pump
	setupReps   int // set-ups per run; setup_s is their median
	exactOps    int // leading sim ops the deterministic counters cover
	leafScale   int // divisor of every leaf driver's loop length
	// extraDeciders is added to the number of deciders an agreement of
	// sim-scale and live-agree must reach. It is 0 except in the test that
	// proves a wrong output fails the run.
	extraDeciders int
}

var (
	full = sizes{scaleN: 64, campaignWU: 40,
		agreeN: 16, agreeWait: 2 * time.Second, serviceRate: 100, serviceWU: 20,
		pumpN: 16, pumpWU: 10000, pumpCount: 25000, setupReps: 5, exactOps: 4, leafScale: 1}
	toy = sizes{scaleN: 10, campaignWU: 2,
		agreeN: 4, agreeWait: 300 * time.Millisecond, serviceRate: 100, serviceWU: 3,
		pumpN: 4, pumpWU: 200, pumpCount: 2000, setupReps: 1, exactOps: 1, leafScale: 50}
)

// env is one measuring phase of one workload.
type env struct {
	seed   int64
	budget time.Duration // measuring window
	sz     sizes
	traced bool // install the node/runtime decorators
}

// opSeed derives the seed of a run's i-th input. Runs on different
// --seed values share no input, so seed 2 is a hold-out for seed 1.
func opSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// measured is what one phase produced.
type measured struct {
	setupS     []float64 // one per set-up repetition
	opMs       []float64 // latency of every op that succeeded
	opTickMs   float64   // when > 0, opMs holds whole clock ticks of this many ms
	attempted  int
	failed     int
	tolerated  int      // violations of the known class (knownFinding), not counted as failed
	violations []string // first three
	opsPerS    float64
	msgsPerS   float64
	ops        float64 // ops the per-op layer costs are divided by
	calls      calls
	sp         *spans
	layer      map[string]float64 // per-layer metrics the workload computes itself, by name
	net        netTotals
	proc       procDelta
}

func newMeasured() *measured {
	return &measured{calls: calls{}, sp: &spans{}, layer: map[string]float64{}}
}

// fail counts n failed ops and keeps the first three reasons.
func (m *measured) fail(n int, format string, args ...any) {
	m.failed += n
	if len(m.violations) < 3 {
		m.violations = append(m.violations, fmt.Sprintf(format, args...))
	}
}

// knownFinding reports whether v is the one violation the program is known
// to produce on live sockets at the commit that defined the benchmark
// (README, finding 2): when n−2f Supports overtake the Initiator in a
// node's mailbox, Block L2 anchors at τ−2d before Block K2 can anchor at
// τ−d, and the battery's Timeliness-2 lower bound rt(τG) ≥ t0−d is missed
// by under a d. It is scheduling luck, so counting it as a failed op would
// make the failed count depend on the box and not on the change measured.
func knownFinding(v check.Violation) bool {
	return v.Property == "Timeliness-2" && strings.Contains(v.Detail, "< t0−d")
}

// failLive counts the violations of a live run: known findings are
// tolerated and reported, every other one fails an op, up to limit.
func (m *measured) failLive(vs []check.Violation, limit int) (failed int) {
	for _, v := range vs {
		switch {
		case knownFinding(v):
			m.tolerated++
		case failed < limit:
			m.fail(1, "%s", v.String())
			failed++
		}
	}
	return failed
}

// calls times calls into the program's public functions from outside.
type calls map[string]*span

func (c calls) time(name string, fn func()) time.Duration {
	t0 := nowNs()
	fn()
	d := nowNs() - t0
	s := c[name]
	if s == nil {
		s = &span{}
		c[name] = s
	}
	s.add(d, 1)
	return time.Duration(d)
}

// get is the running total of one named call, zero if it was never made.
func (c calls) get(name string) span {
	if s := c[name]; s != nil {
		return *s
	}
	return span{}
}

// meanMs is the mean duration of one named call, in ms.
func (c calls) meanMs(name string) float64 {
	s := c.get(name)
	return ratio(float64(s.ns)/1e6, float64(s.count))
}

type workload struct {
	name string
	why  string
	run  func(e env) *measured
	sim  bool    // runs on the simulator: runtime spans belong to simnet
	p99  string  // per-layer name of the op latency's 99th percentile
	dMs  float64 // the paper's d in ms, where op latency reads against it
}

var workloads = []workload{
	{name: "sim-scale", run: simScale, sim: true,
		why: "one n=64 simulated agreement per op: protocol handlers and the event loop are the whole cost"},
	{name: "sim-campaign", run: simCampaign, sim: true, p99: "scenario_ms_p99",
		why: "thousands of small adversarial simulated worlds: world set-up, adversaries and the battery dominate"},
	{name: "live-agree", run: liveAgree, p99: "decide_ms_p99", dMs: float64(agreeD) * agreeTick.Seconds() * 1e3,
		why: "one agreement at a time over UDP loopback at n=16: every transport layer is on the blocking path"},
	{name: "live-service", run: liveService, p99: "commit_ms_p99",
		why: "open-loop replicated log at half the slot ceiling on n=4 sockets: the service pump and its polling dominate"},
	{name: "wire-pump", run: wirePump,
		why: "NullNode flood over UDP at n=16: transport throughput with zero protocol work"},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// simOps runs op(i) for i = 0, 1, … until the budget is spent, after
// setupReps set-ups of warm ops each, and fills the rates every simulator
// workload shares. op returns the messages sent and events processed.
func simOps(e env, m *measured, warm int, op func(i int, m *measured) (msgs int64, events uint64)) {
	for r := 0; r < e.sz.setupReps; r++ {
		t0 := time.Now()
		scratch := newMeasured()
		for i := 0; i < warm; i++ {
			op(i, scratch)
		}
		m.setupS = append(m.setupS, time.Since(t0).Seconds())
	}
	var msgs, exactMsgs int64
	var events, exactEvents uint64
	before := readProc()
	start := time.Now()
	for i := 0; time.Since(start) < e.budget || i < e.sz.exactOps; i++ {
		mg, ev := op(i, m)
		msgs += mg
		events += ev
		if i < e.sz.exactOps {
			exactMsgs += mg
			exactEvents += ev
		}
	}
	wall := time.Since(start).Seconds()
	m.proc = readProc().since(before)
	m.ops = float64(m.attempted)
	m.opsPerS = float64(m.attempted-m.failed) / wall
	m.msgsPerS = float64(msgs) / wall
	// The simulator is deterministic, so these repeat exactly for a seed:
	// they cover a fixed number of leading ops, not however many fit.
	m.layer["sim.msgs_per_agreement"] = float64(exactMsgs) / float64(e.sz.exactOps)
	m.layer["sim.events_per_agreement"] = float64(exactEvents) / float64(e.sz.exactOps)
	// What sim.Run spent outside every decorated handler is the scheduler
	// and the transport's delivery path.
	m.layer["simtime.dispatch_ns_per_event"] = ratio(float64(m.calls.get("sim.run").ns-m.sp.handlers), float64(events))
}

// simOp runs one scenario (decorated when the phase is traced) and its
// battery, and records the op: its latency, spent preparing sc included, or
// its first violation. It returns the messages sent and events processed.
func simOp(e env, m *measured, sc sim.Scenario, spent time.Duration,
	battery func(*sim.Result) []check.Violation) (msgs int64, events uint64) {
	var tr *tracer
	if e.traced {
		tr = newTracer(sc.Params.N, false)
		sc.NewNode = tr.wrap(func() protocol.Node { return core.NewNode() })
	}
	var res *sim.Result
	var err error
	spent += m.calls.time("sim.run", func() { res, err = sim.Run(sc) })
	if err != nil {
		m.fail(1, "sim.Run: %v", err)
		return 0, 0
	}
	var vs []check.Violation
	spent += m.calls.time("check.battery", func() { vs = battery(res) })
	if tr != nil {
		m.sp.merge(tr.total())
	}
	if len(vs) > 0 {
		m.fail(1, "%s", vs[0])
	} else {
		m.opMs = append(m.opMs, spent.Seconds()*1e3)
	}
	msgs, _ = res.World.MessageCount()
	return msgs, res.World.Scheduler().Processed()
}

// simScale: fault-free agreement at n=64, δ ∈ [d/2, d], General 0
// initiates at 2d; a fresh world per op. Op = sim.Run + battery + every
// correct node decided.
func simScale(e env) *measured {
	m := newMeasured()
	pp := protocol.DefaultParams(e.sz.scaleN)
	t0 := simtime.Real(2 * pp.D)
	const value = protocol.Value("v")
	op := func(i int, m *measured) (int64, uint64) {
		sc := sim.Scenario{
			Params: pp, Seed: opSeed(e.seed, i),
			DelayMin: pp.D / 2, DelayMax: pp.D,
			Initiations: []sim.Initiation{{At: t0, G: 0, Value: value}},
			RunFor:      simtime.Duration(t0) + 3*pp.DeltaAgr(),
		}
		m.attempted++
		return simOp(e, m, sc, 0, func(res *sim.Result) []check.Violation {
			vs := append(check.All(res, 0), check.Validity(res, 0, t0, value)...)
			if got, want := deciders(res, 0, value), len(res.Correct)+e.sz.extraDeciders; got != want {
				vs = append(vs, check.Violation{Property: "Coverage",
					Detail: fmt.Sprintf("%d of %d correct nodes decided", got, want)})
			}
			return vs
		})
	}
	simOps(e, m, 1, op)
	return m
}

// deciders counts correct nodes that decided v for General g.
func deciders(res *sim.Result, g protocol.NodeID, v protocol.Value) int {
	n := 0
	for _, d := range res.Decisions(g) {
		if d.Decided && d.Value == v {
			n++
		}
	}
	return n
}

// Generator seeds of sim-campaign come from [campaignLo, campaignHi), where
// every (seed, n = campaignNs[seed mod 5]) was run and passes the battery at the
// commit that defined the benchmark. Outside it roughly one generated
// scenario in 2500 violates Termination or Timeliness-1c (README, findings),
// which would make the failed count depend on the seed drawn.
var campaignNs = []int{4, 7, 10, 13, 16}

const (
	campaignLo     = 5000
	campaignHi     = 30000
	campaignStride = 3000 // > ops per run: consecutive --seed values share no input
)

func campaignSeed(seed int64, i int) int64 {
	span := int64(campaignHi - campaignLo)
	return campaignLo + ((seed*campaignStride+int64(i))%span+span)%span
}

// simCampaign: generated adversarial scenarios over small committees.
// Op = Generate → Spec.Scenario → sim.Run → scenario.Check.
func simCampaign(e env) *measured {
	m := newMeasured()
	op := func(i int, m *measured) (int64, uint64) {
		gen := campaignSeed(e.seed, i)
		n := campaignNs[gen%int64(len(campaignNs))]
		m.attempted++
		var sp scenario.Spec
		d := m.calls.time("scenario.generate", func() { sp = scenario.Generate(gen, n) })
		var sc sim.Scenario
		var err error
		d += m.calls.time("scenario.build", func() { sc, err = sp.Scenario() })
		if err != nil {
			m.fail(1, "Spec.Scenario: %v", err)
			return 0, 0
		}
		return simOp(e, m, sc, d, func(res *sim.Result) []check.Violation { return scenario.Check(res, sp) })
	}
	simOps(e, m, e.sz.campaignWU, op)
	return m
}

// Live-agree constants: tick 10 µs, d = 5000 ticks = 50 ms.
const (
	agreeTick = 10 * time.Microsecond
	agreeD    = simtime.Duration(5000)
)

// agreeRound boots a fresh cluster, lets each General initiate once in
// turn with one agreement outstanding, runs the live battery and stops.
// It returns the wall time the agreements were in flight and the frames
// delivered meanwhile.
func agreeRound(e env, m *measured, round int, generals int) (inFlight time.Duration, frames int64) {
	pp := protocol.DefaultParams(e.sz.agreeN)
	pp.D = agreeD
	cfg := nettrans.ClusterConfig{Params: pp, Tick: agreeTick, Transport: nettrans.TransportUDP}
	var tr *tracer
	if e.traced {
		tr = newTracer(pp.N, true)
		cfg.NewNode = tr.wrap(func() protocol.Node { return core.NewNode() })
	}
	var c *nettrans.Cluster
	var err error
	m.calls.time("nettrans.boot", func() { c, err = nettrans.NewCluster(cfg) })
	if err != nil {
		m.attempted += generals
		m.fail(generals, "NewCluster: %v", err)
		return 0, 0
	}
	rec := c.Recorder()
	want := len(c.Correct()) + e.sz.extraDeciders
	var inits []check.LiveInitiation
	lats := make([]float64, 0, generals)
	ok := true
	for g := 0; g < generals && ok; g++ {
		m.attempted++
		gid := protocol.NodeID(g)
		v := protocol.Value(fmt.Sprintf("r%dg%d", round, g))
		before := rec.KindLen(protocol.EvDecide)
		start := time.Now()
		err := fmt.Errorf("cluster stopped")
		c.DoWait(gid, func(n protocol.Node) { err = n.(sim.Initiator).InitiateAgreement(v) })
		if err != nil {
			m.fail(1, "General %d refused %q: %v", g, v, err)
			continue
		}
		// Completion is read off the shared recorder: every decide of this
		// round so far, plus one per correct node for this agreement.
		for rec.KindLen(protocol.EvDecide) < before+want {
			if time.Since(start) > e.sz.agreeWait {
				ok = false
				break
			}
			time.Sleep(200 * time.Microsecond)
		}
		inFlight += time.Since(start)
		if !ok {
			m.fail(1, "%q: %d of %d correct nodes decided within %v",
				v, rec.KindLen(protocol.EvDecide)-before, want, e.sz.agreeWait)
			break
		}
		// Latency is read from the trace, at tick resolution: the General's
		// EvInitiate to the last correct node's EvDecide.
		var t0, last simtime.Real
		rec.ForEachKind(func(ev protocol.TraceEvent) {
			if ev.G != gid || ev.M != v {
				return
			}
			if ev.Kind == protocol.EvInitiate {
				t0 = ev.RT
			} else if ev.RT > last {
				last = ev.RT
			}
		}, protocol.EvInitiate, protocol.EvDecide)
		inits = append(inits, check.LiveInitiation{G: gid, V: v, T0: t0})
		lats = append(lats, float64(last-t0)*agreeTick.Seconds()*1e3)
	}
	stats, batches := c.Stats(), c.BatchStats()
	frames = stats.Received
	var vs []check.Violation
	m.calls.time("check.live_battery", func() {
		lr := &check.LiveResult{Result: c.Result(simtime.Duration(c.NowTicks()) + 1)}
		vs = lr.Battery(inits)
	})
	m.calls.time("nettrans.stop", c.Stop)
	if tr != nil {
		m.sp.merge(tr.total())
	}
	addNetStats(m, stats, batches)
	if m.failLive(vs, len(lats)) > 0 {
		// A violated bound voids the round's latencies.
		return inFlight, frames
	}
	m.opMs = append(m.opMs, lats...)
	return inFlight, frames
}

// netTotals are the transport counts the per-frame ratios are taken from.
type netTotals struct{ sent, received, batches, batchedFrames float64 }

// addNetStats folds one cluster's transport counters into the run's.
func addNetStats(m *measured, s nettrans.Stats, b nettrans.BatchStats) {
	m.net.sent += float64(s.Sent)
	m.net.received += float64(s.Received)
	m.net.batches += float64(b.BatchesSent)
	m.net.batchedFrames += float64(b.BatchedFrames)
	m.layer["nettrans.late_drops"] += float64(s.LateDrops)
	m.layer["nettrans.dedup_drops"] += float64(s.DupDrops)
	m.layer["nettrans.auth_drops"] += float64(s.AuthDrops)
	m.layer["nettrans.epoch_drops"] += float64(s.EpochDrops)
}

// liveAgree: closed loop, one agreement outstanding, fresh cluster per
// round so IG1–IG3 never refuse an initiation.
func liveAgree(e env) *measured {
	m := newMeasured()
	// A set-up is ~25 ms here, so it is repeated three times as often.
	for r := 0; r < 3*e.sz.setupReps; r++ {
		t0 := time.Now()
		agreeRound(e, newMeasured(), -1-r, 1)
		m.setupS = append(m.setupS, time.Since(t0).Seconds())
	}
	var inFlight time.Duration
	var frames int64
	before := readProc()
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < e.budget; round++ {
		d, f := agreeRound(e, m, round, e.sz.agreeN)
		inFlight += d
		frames += f
	}
	wall := time.Since(start).Seconds()
	m.proc = readProc().since(before)
	m.ops = float64(m.attempted)
	m.opsPerS = float64(m.attempted-m.failed) / wall
	m.msgsPerS = ratio(float64(frames), inFlight.Seconds())
	return m
}

// Live-service constants: tick 100 µs, d = 250 ticks = 25 ms.
const (
	serviceTick     = 100 * time.Microsecond
	serviceD        = simtime.Duration(250)
	serviceSessions = 64
)

// serviceRun drives service.RunLive with an open-loop Poisson schedule of
// count proposals at General 0, starting at 2d.
func serviceRun(e env, m *measured, seed int64, count int) (*service.LiveResult, time.Duration) {
	pp := protocol.DefaultParams(4)
	pp.D = serviceD
	gap := simtime.Duration(time.Second/serviceTick) / simtime.Duration(e.sz.serviceRate)
	loads := []service.Workload{{G: 0,
		Arrivals: service.PoissonArrivals(seed, simtime.Real(2*pp.D), gap, count)}}
	cfg := service.LiveConfig{Params: pp, Tick: serviceTick,
		Transport: nettrans.TransportUDP, Sessions: serviceSessions}
	var lr *service.LiveResult
	var err error
	budget := time.Duration(count)*time.Second/time.Duration(e.sz.serviceRate) + 10*time.Second
	d := m.calls.time("service.run_live", func() { lr, err = service.RunLive(cfg, loads, budget) })
	if err != nil {
		m.attempted += count
		m.fail(count, "RunLive: %v", err)
		return nil, d
	}
	return lr, d
}

// liveService: the product surface. Latency is commit − due arrival, so a
// stall is charged to every proposal it delays.
func liveService(e env) *measured {
	m := newMeasured()
	for r := 0; r < e.sz.setupReps; r++ {
		t0 := time.Now()
		serviceRun(e, newMeasured(), opSeed(e.seed, -1-r), e.sz.serviceWU)
		m.setupS = append(m.setupS, time.Since(t0).Seconds())
	}
	count := max(int(e.budget.Seconds()*float64(e.sz.serviceRate)), 1)
	before := readProc()
	lr, wall := serviceRun(e, m, opSeed(e.seed, 0), count)
	m.proc = readProc().since(before)
	if lr == nil {
		return m
	}
	log := lr.Logs[0]
	m.attempted += len(log.Entries)
	m.ops = float64(len(log.Entries))
	var commitTicks, admitTicks, agreeTicks []float64
	for _, en := range log.Entries {
		if en.State != service.EntryCommitted {
			m.fail(1, "entry %d %s", en.Index, en.State)
			continue
		}
		commitTicks = append(commitTicks, float64(en.CommittedAt-en.ArrivedAt))
		admitTicks = append(admitTicks, float64(en.InitiatedAt-en.ArrivedAt))
		agreeTicks = append(agreeTicks, float64(en.CommittedAt-en.InitiatedAt))
	}
	if missing := count - len(log.Entries); missing > 0 {
		m.attempted += missing
		m.fail(missing, "%d proposals never arrived", missing)
	}
	var vs []check.Violation
	m.calls.time("service.battery", func() { vs = service.Battery(lr.Res, lr.Logs) })
	m.failLive(vs, len(commitTicks))
	tickMs := serviceTick.Seconds() * 1e3
	// The service reports whole ticks; they stay ticks until the quantiles
	// are taken (see tickQuantile).
	m.opMs, m.opTickMs = commitTicks, tickMs
	m.layer["service.admit_wait_ms_p50"] = tickQuantile(admitTicks, 0.5) * tickMs
	m.layer["service.agreement_ms_p50"] = tickQuantile(agreeTicks, 0.5) * tickMs
	m.layer["service.dropped"] = float64(log.Dropped)
	m.layer["service.failed"] = float64(log.Failed)
	addNetStats(m, lr.Stats, nettrans.BatchStats{})
	m.opsPerS = float64(len(commitTicks)) / wall.Seconds()
	m.msgsPerS = float64(lr.Stats.Received) / wall.Seconds()
	return m
}

// wirePump: transport only. One warm-up pump per set-up, then timed pumps
// of pumpCount broadcasts (×n frames) until the budget is spent. A single
// pump's rate spreads ±15 %, so the rate reported is the median pump's.
func wirePump(e env) *measured {
	m := newMeasured()
	pp := protocol.DefaultParams(e.sz.pumpN)
	pp.D = 10000
	cfg := nettrans.ClusterConfig{Params: pp, Transport: nettrans.TransportUDP,
		NewNode: func() protocol.Node { return nettrans.NullNode{} }}
	const timeout = 20 * time.Second
	var c *nettrans.Cluster
	for r := 0; r < e.sz.setupReps; r++ {
		if c != nil {
			c.Stop()
		}
		t0 := time.Now()
		var err error
		m.calls.time("nettrans.boot", func() { c, err = nettrans.NewCluster(cfg) })
		if err != nil {
			m.attempted++
			m.fail(1, "NewCluster: %v", err)
			return m
		}
		c.Pump(0, e.sz.pumpWU, timeout)
		m.setupS = append(m.setupS, time.Since(t0).Seconds())
	}
	base, baseBatches := c.Stats(), c.BatchStats()
	var rates []float64
	var pumping time.Duration
	before := readProc()
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < e.budget; i++ {
		m.attempted++
		pr := c.Pump(0, e.sz.pumpCount, timeout)
		if pr.Sent != pr.Received || pr.Sent == 0 {
			m.fail(1, "pump %d: sent %d, delivered %d", i, pr.Sent, pr.Received)
			continue
		}
		pumping += pr.Elapsed
		m.opMs = append(m.opMs, pr.Elapsed.Seconds()*1e3)
		rates = append(rates, pr.MsgsPerSec())
	}
	m.proc = readProc().since(before)
	s, b := c.Stats(), c.BatchStats()
	m.calls.time("nettrans.stop", c.Stop)
	s.Sent -= base.Sent
	s.Received -= base.Received
	b.BatchesSent -= baseBatches.BatchesSent
	b.BatchedFrames -= baseBatches.BatchedFrames
	addNetStats(m, s, b)
	m.ops = float64(m.attempted)
	m.opsPerS = ratio(float64(len(rates)), pumping.Seconds())
	m.msgsPerS = median(rates)
	return m
}
