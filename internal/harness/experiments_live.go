package harness

import (
	"fmt"
	"time"

	"ssbyz/internal/check"
	"ssbyz/internal/metrics"
	"ssbyz/internal/nettrans"
	"ssbyz/internal/protocol"
	"ssbyz/internal/simnet"
	"ssbyz/internal/simtime"
)

// Experiment L1 "Live loopback cluster": the protocol over REAL sockets —
// internal/nettrans's UDP transport (datagram-per-message, wire codec,
// source-address authentication, deadline drops) on 127.0.0.1 — measured
// the way a deployment would measure it: decide-latency percentiles in
// wall time, messages per second, and the full property battery over the
// collected trace. A TCP row gives the lossless-stream baseline, and a
// chaos sweep replays a PR4-style ConditionSchedule (jitter plus a
// partition around a crash-faulty node) against the live sockets.
//
// Unlike every other experiment, L1's numbers are wall-clock
// measurements: they vary with the host and the run. It therefore does
// NOT appear in All() (whose report must be byte-identical across worker
// counts — the determinism gates pin that); `ssbyz-bench -live` appends
// it to the suite and its JSON artifact explicitly, and the committed
// BENCH_*.json artifacts carry its trajectory. What must NOT vary is the
// verdict: zero checker violations and full decision coverage on every
// cell.

// LiveNs is the L1 committee sweep. All three sizes run even in quick
// mode (the sweep is the point); only the per-size seed count shrinks.
func LiveNs() []int { return []int{4, 7, 16} }

// liveD is the paper's d for live cells, in ticks of liveTick: 250 ticks
// × 100µs = 25ms, generous enough that host scheduling jitter does not
// masquerade as protocol latency (or trip the deadline drops) even when
// the rest of the suite is saturating the machine's cores.
const (
	liveD    = simtime.Duration(250)
	liveTick = 100 * time.Microsecond
)

// liveCell is one live cluster run: a cluster is brought up, one
// agreement runs to decision, the trace is checked, the cluster torn
// down.
type liveCell struct {
	lats       []float64 // per-node decide latency, ticks
	stats      nettrans.Stats
	agrWallS   float64 // initiate→all-decided wall seconds (msgs/sec base)
	cellWallMS float64 // full cell wall clock incl. setup/teardown
	violations int
	errs       []string
	// incomplete marks an environmental failure — not every correct node
	// decided, which on a loopback with no adversary means the HOST
	// starved the run (deadline drops under CPU contention), not that the
	// protocol failed. Incomplete cells are retried a bounded number of
	// times; battery violations on a complete run are never retried.
	incomplete bool
}

// runLiveCell runs one agreement on a fresh loopback cluster.
func runLiveCell(n int, transport string, conds []simnet.Condition,
	faulty map[protocol.NodeID]protocol.Node) liveCell {
	cellStart := time.Now()
	var c liveCell
	fail := func(format string, args ...any) liveCell {
		c.violations++
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
		c.cellWallMS = float64(time.Since(cellStart).Microseconds()) / 1000
		return c
	}
	pp := protocol.DefaultParams(n)
	pp.D = liveD
	cl, err := nettrans.NewCluster(nettrans.ClusterConfig{
		Params: pp, Tick: liveTick, Transport: transport,
		Conditions: conds, Faulty: faulty,
	})
	if err != nil {
		return fail("cluster: %v", err)
	}
	defer cl.Stop()

	agrStart := time.Now()
	const value = protocol.Value("l1")
	t0, _, err := cl.Initiate(0, 0, value)
	if err != nil {
		return fail("initiate: %v", err)
	}
	budget := time.Duration(pp.DeltaAgr())*liveTick + 5*time.Second
	deciders := cl.AwaitDecisions(0, value, budget)
	c.agrWallS = time.Since(agrStart).Seconds()
	c.stats = cl.Stats()

	res := cl.Result(simtime.Duration(cl.NowTicks()) + 1)
	lr := &check.LiveResult{Result: res}
	c.lats = lr.DecideLatencies(0, value, t0)
	if deciders != len(res.Correct) || len(c.lats) != len(res.Correct) {
		c.incomplete = true
		return fail("only %d/%d correct nodes decided (%d late drops — host contention?)",
			deciders, len(res.Correct), c.stats.LateDrops)
	}
	vs := lr.Battery([]check.LiveInitiation{{G: 0, V: value, T0: t0}})
	c.violations += len(vs)
	for _, v := range vs {
		c.errs = append(c.errs, v.String())
	}
	c.cellWallMS = float64(time.Since(cellStart).Microseconds()) / 1000
	return c
}

// runLiveCellRetry reruns environmentally failed (incomplete) cells up
// to two more times. A cell that stays incomplete after three attempts,
// or that completes with battery violations on any attempt, is reported
// as-is: persistent non-decision IS signal, and a violated bound on a
// complete run always is.
func runLiveCellRetry(n int, transport string, conds []simnet.Condition,
	faulty map[protocol.NodeID]protocol.Node) (liveCell, int) {
	var c liveCell
	for attempt := 0; ; attempt++ {
		c = runLiveCell(n, transport, conds, faulty)
		if !c.incomplete || attempt >= 2 {
			return c, attempt
		}
	}
}

// liveRow aggregates a (config, seeds) series into one table row.
func liveRow(t *metrics.Table, label string, n, seeds int, cells []liveCell,
	r *Result, cellWall map[string]float64, wallKey string) {
	pp := protocol.DefaultParams(n)
	var lats []float64
	var sent, late, chaosDrops int64
	var agrWallS, cellMS float64
	violations := 0
	for _, c := range cells {
		lats = append(lats, c.lats...)
		sent += c.stats.Sent
		late += c.stats.LateDrops
		chaosDrops += c.stats.ChaosDrops
		agrWallS += c.agrWallS
		cellMS += c.cellWallMS
		violations += c.violations
		for _, e := range c.errs {
			r.Notes = append(r.Notes, fmt.Sprintf("%s n=%d: %s", label, n, e))
		}
	}
	s := metrics.Summarize(lats)
	tickMS := float64(liveTick.Microseconds()) / 1000
	msgsPerSec := 0.0
	if agrWallS > 0 {
		msgsPerSec = float64(sent) / agrWallS
	}
	t.AddRow(label, n, pp.F, seeds,
		fmt.Sprintf("%.2f", s.P50*tickMS),
		fmt.Sprintf("%.2f", s.P95*tickMS),
		fmt.Sprintf("%.2f", s.Max*tickMS),
		fmt.Sprintf("%.3f", s.P50/float64(liveD)),
		float64(sent)/float64(seeds),
		fmt.Sprintf("%.0f", msgsPerSec),
		late, chaosDrops, violations)
	r.Violations += violations
	cellWall[wallKey] = cellMS / float64(seeds)
}

// L1Live is the live loopback experiment. Cells run strictly
// sequentially — overlapping live clusters would contend for the host
// and pollute each other's wall-clock numbers — so Options.Workers is
// deliberately ignored.
func L1Live(opt Options) *Result {
	r := &Result{ID: "L1", Title: "Live loopback cluster: sockets, wire codec, wall-clock latency"}
	seeds := 2
	if !opt.Quick {
		seeds = 5
	}
	cellWall := make(map[string]float64)
	t := metrics.NewTable(
		fmt.Sprintf("live loopback agreement (d = %d ticks × %v = %v)", liveD, liveTick, time.Duration(liveD)*liveTick),
		"transport", "n", "f", "seeds", "p50 ms", "p95 ms", "max ms", "p50 (d)",
		"msgs/agr", "msgs/sec", "late drops", "chaos drops", "violations")

	retries := 0
	runSeries := func(n int, transport string, conds []simnet.Condition,
		faulty map[protocol.NodeID]protocol.Node) []liveCell {
		cells := make([]liveCell, seeds)
		for s := range cells {
			var tries int
			cells[s], tries = runLiveCellRetry(n, transport, conds, faulty)
			retries += tries
		}
		return cells
	}

	for _, n := range LiveNs() {
		cells := runSeries(n, nettrans.TransportUDP, nil, nil)
		liveRow(t, "udp", n, seeds, cells, r, cellWall, fmt.Sprintf("udp/%d", n))
	}
	// Lossless stream baseline at the smallest size.
	liveRow(t, "tcp", 4, seeds, runSeries(4, nettrans.TransportTCP, nil, nil),
		r, cellWall, "tcp/4")
	r.Tables = append(r.Tables, t)

	// Chaos replay: a PR4-style ConditionSchedule against real sockets —
	// jitter on every link plus a partition around a crash-faulty node
	// (drops only touch the faulty node, so the battery must stay clean).
	chaosTable := metrics.NewTable(
		"ConditionSchedule replayed over live sockets (jitter everywhere + partition around a crashed node)",
		"transport", "n", "f", "seeds", "p50 ms", "p95 ms", "max ms", "p50 (d)",
		"msgs/agr", "msgs/sec", "late drops", "chaos drops", "violations")
	pp := protocol.DefaultParams(7)
	pp.D = liveD
	horizon := simtime.Real(simtime.Duration(10000) * liveD)
	conds := []simnet.Condition{
		{Kind: simnet.CondJitter, From: 0, Until: horizon, Jitter: liveD / 4},
		{Kind: simnet.CondPartition, From: 0, Until: horizon, Nodes: []protocol.NodeID{6}},
	}
	faulty := map[protocol.NodeID]protocol.Node{6: nil}
	liveRow(chaosTable, "udp+chaos", 7, seeds,
		runSeries(7, nettrans.TransportUDP, conds, faulty), r, cellWall, "chaos/7")
	r.Tables = append(r.Tables, chaosTable)

	// Wire-rate pump: the transport stack alone (encode → coalesce →
	// sendmmsg → recvmmsg → shards → decode → dedup → deliver), protocol
	// state machines stubbed out by NullNode. The measured aggregate rate
	// lands in Floors, where the bench guard holds the committed artifact
	// to the 10⁶ msgs/sec floor.
	r.Floors = map[string]float64{}
	l1PumpRow(r, cellWall)

	r.CellWallMS = cellWall
	r.Notes = append(r.Notes,
		"the wire-rate pump floods NullNode state machines through the full transport stack (coalesced frames, batched syscalls, sharded ingest) — the aggregate delivered rate is recorded in the artifact's floors and held to the 10⁶ msgs/sec floor by the bench guard; shortfall against sent is genuine datagram loss under deliberate overload, which the paper's model tolerates")
	if retries > 0 {
		r.Notes = append(r.Notes, fmt.Sprintf(
			"%d cell(s) were rerun after an incomplete first attempt (host contention starved the run past the d deadline); persistent failures are reported, one-off starvation is not", retries))
	}
	r.Notes = append(r.Notes,
		"every cell is a real loopback cluster: one socket per node, every message through the wire codec with source-address authentication; the trace passes the full property battery",
		"latency columns are wall-clock and vary with the host — the DETERMINISTIC acceptance here is zero violations and full decision coverage; p50 (d) shows message-driven speed: decisions land far inside the d-based bounds",
		"the chaos table replays a scenario-engine ConditionSchedule against real sockets (DESIGN.md §7): scripted jitter delays the socket write, the partition eats frames around the crashed node (chaos drops > 0)",
	)
	return r
}

// l1PumpBroadcasts is the pump's offered load: 20000 broadcasts at
// n = 16 are 300k point-to-point messages — enough to amortize startup
// and the settle window while keeping the quick -live run fast.
const l1PumpBroadcasts = 20000

// l1PumpRow measures the transport's wire rate: one n=16 loopback UDP
// cluster of NullNode state machines, flooded by the pump from node 0.
// Every message crosses the real stack — encode, coalesce, sendmmsg,
// recvmmsg, ingest shards, decode, dedup, delivery — so the delivered
// aggregate rate is the transport's, not the protocol's. The rate lands
// in r.Floors["udp_pump_msgs_per_sec_n16"]; the committed BENCH artifact
// must prove ≥ 10⁶ there (bench_guard_test.go).
func l1PumpRow(r *Result, cellWall map[string]float64) {
	const n = 16
	cellStart := time.Now()
	pp := protocol.DefaultParams(n)
	// A wide deadline window: the pump deliberately overloads the host,
	// so receive-side lag must read as loss (kernel drops), never as
	// late-frame rejections that would understate the stack's rate.
	pp.D = 10000
	t := metrics.NewTable(
		fmt.Sprintf("transport wire-rate pump (NullNode machines, %d broadcasts from one node, wall-clock)", l1PumpBroadcasts),
		"mode", "n", "sent", "delivered", "delivered/sent", "msgs/sec", "batches", "frames/batch")
	cl, err := nettrans.NewCluster(nettrans.ClusterConfig{
		Params: pp, Tick: liveTick, Transport: nettrans.TransportUDP,
		NewNode: func() protocol.Node { return nettrans.NullNode{} },
	})
	if err != nil {
		r.Violations++
		r.Notes = append(r.Notes, fmt.Sprintf("pump cluster: %v", err))
		return
	}
	defer cl.Stop()
	// Warm the pipeline first (dedup tables, coalescer buffers, socket
	// pools grow to steady-state capacity), then measure: the floor is a
	// steady-state wire rate, not a cold-start one.
	cl.Pump(0, l1PumpBroadcasts/10, 10*time.Second)
	res := cl.Pump(0, l1PumpBroadcasts, 30*time.Second)
	bs := cl.BatchStats()
	ratio, perBatch := 0.0, 0.0
	if res.Sent > 0 {
		ratio = float64(res.Received) / float64(res.Sent)
	}
	if bs.BatchesSent > 0 {
		perBatch = float64(bs.BatchedFrames) / float64(bs.BatchesSent)
	}
	rate := res.MsgsPerSec()
	t.AddRow("coalesced", n, res.Sent, res.Received,
		fmt.Sprintf("%.3f", ratio),
		fmt.Sprintf("%.0f", rate),
		bs.BatchesSent,
		fmt.Sprintf("%.1f", perBatch))
	if res.Received == 0 {
		r.Violations++
		r.Notes = append(r.Notes, "pump delivered nothing — the transport stack is stalled")
	}
	r.Tables = append(r.Tables, t)
	r.Floors["udp_pump_msgs_per_sec_n16"] = rate
	cellWall["pump/16"] = float64(time.Since(cellStart).Microseconds()) / 1000
}
