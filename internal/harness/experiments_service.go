package harness

import (
	"fmt"
	"time"

	"ssbyz/internal/metrics"
	"ssbyz/internal/protocol"
	"ssbyz/internal/service"
	"ssbyz/internal/sim"
	"ssbyz/internal/simtime"
)

// Experiment S3 "Service throughput vs session concurrency": the
// replicated-log facade under an open-loop Poisson client, sweeping the
// footnote-9 concurrent-invocation slot count. The paper's IG1 admission
// rule spaces successive invocations of one General by Δ0 = 13d PER
// INVOCATION SLOT, so a single-session General sustains at most one
// agreement per 13d no matter how fast clients arrive — the bounded
// pending queue sheds the excess. Multiplexing C concurrent sessions
// over the same nodes, msglogs, and timers lifts the sustained rate
// toward C/Δ0 until the client's arrival rate itself saturates. S3
// measures that curve: sustained agreements/sec, shed fraction, and
// commit-latency percentiles at C ∈ {1, 4, 16, 64}, with the full
// per-session property battery on every cell.
//
// Like the rest of the deterministic suite the numbers are virtual-time
// (1 tick = 1 ms, so the default d = 1000 ticks reads as one second);
// wall-clock cost goes to cell_wall_ms.

// ServiceConcurrency is the S3 session-count sweep. It is not shrunk in
// quick mode — the concurrency curve is the point — only the entry and
// seed counts shrink.
func ServiceConcurrency() []int { return []int{1, 4, 16, 64} }

// svcMeanGap is the open-loop client's mean inter-arrival gap: d/6, an
// offered load of ~78 agreements per Δ0 — far past what one session can
// admit (1 per Δ0), and just above what 64 sessions can drain, so every
// sweep point is saturated and "agreements/sec" reads as SUSTAINED
// throughput, not arrival echo.
func svcMeanGap(pp protocol.Params) simtime.Duration { return pp.D / 6 }

// svcCell is one (concurrency, seed) service run.
type svcCell struct {
	proposed   int
	committed  int
	dropped    int
	failed     int
	lats       []float64 // commit − arrival per committed entry, ticks
	makespan   float64   // first arrival → last commit, ticks
	violations int
	errs       []string
	wallMS     float64
}

// runServiceCell pushes one open-loop workload of `entries` arrivals
// through General 0 with the given concurrent-session count and the
// service's default bounded queue (4·sessions).
func runServiceCell(opt Options, sessions, entries, seed int) svcCell {
	start := time.Now()
	var c svcCell
	pp := protocol.DefaultParams(16)
	arrivals := service.PoissonArrivals(int64(1000*sessions+seed),
		simtime.Real(2*pp.D), svcMeanGap(pp), entries)
	res, err := service.RunSim(service.SimConfig{
		Scenario: sim.Scenario{Params: pp, Seed: int64(7000*sessions + seed)},
		Sessions: sessions,
		Loads:    []service.Workload{{G: 0, Arrivals: arrivals}},
	})
	if err != nil {
		c.violations++
		c.errs = append(c.errs, err.Error())
		return c
	}
	st := res.Logs[0].Stats()
	c.proposed, c.committed = st.Proposed, st.Committed
	c.dropped, c.failed = st.Dropped, st.Failed
	c.makespan = float64(st.MakespanTicks)
	for _, l := range st.Latencies {
		c.lats = append(c.lats, float64(l))
	}
	if c.failed > 0 {
		c.errs = append(c.errs, fmt.Sprintf("%d entries failed (no decide within the reclaim extent)", c.failed))
	}
	vs := service.Battery(res.Res, res.Logs)
	c.violations += len(vs)
	for _, v := range vs {
		c.errs = append(c.errs, v.String())
	}
	c.wallMS = float64(time.Since(start).Microseconds()) / 1000
	return c
}

// ServiceThroughputTable runs the S3 sweep and returns the table, the
// violation count, the mean per-seed wall clock per concurrency (JSON
// cell_wall_ms), and the mean sustained agreements/sec per concurrency —
// the series the throughput-floor gate checks. Everything in the table
// is virtual-time deterministic.
func ServiceThroughputTable(opt Options, concs []int) (*metrics.Table, int, map[string]float64, map[int]float64, []string) {
	entries, seeds := 128, 3
	if opt.Quick {
		entries, seeds = 64, 2
	}
	t := metrics.NewTable(
		fmt.Sprintf("replicated-log service, n=16, open-loop Poisson mean gap d/6, queue 4·C (%d arrivals, 1 tick = 1 ms)", entries),
		"conc", "seeds", "proposed", "committed", "shed", "agr/sec", "×c1",
		"p50 lat (d)", "p99 lat (d)")
	cells := sweep(opt, concs, seeds, func(conc, seed int) svcCell {
		return runServiceCell(opt, conc, entries, seed)
	})
	violations := 0
	var errs []string
	cellWall := make(map[string]float64, len(concs))
	thr := make(map[int]float64, len(concs))
	rows := make([][]any, 0, len(concs))
	for i, conc := range concs {
		pp := protocol.DefaultParams(16)
		var lats []float64
		var proposed, committed, dropped float64
		var agrSec, wall float64
		for _, c := range cells[i] {
			violations += c.violations
			for _, e := range c.errs {
				errs = append(errs, fmt.Sprintf("c%d: %s", conc, e))
			}
			lats = append(lats, c.lats...)
			proposed += float64(c.proposed)
			committed += float64(c.committed)
			dropped += float64(c.dropped)
			if c.makespan > 0 {
				// 1 tick = 1 ms ⇒ ticks/1000 = seconds.
				agrSec += float64(c.committed) / (c.makespan / 1000)
			}
			wall += c.wallMS
		}
		sN := float64(seeds)
		thr[conc] = agrSec / sN
		s := metrics.Summarize(lats)
		rows = append(rows, []any{conc, seeds, proposed / sN, committed / sN,
			dropped / sN, fmt.Sprintf("%.3f", thr[conc]),
			fmt.Sprintf("%.1f", thr[conc]/thr[concs[0]]),
			fmt.Sprintf("%.1f", dF(s.P50, pp)), fmt.Sprintf("%.1f", dF(s.P99, pp))})
		cellWall[fmt.Sprintf("c%d", conc)] = wall / sN
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	return t, violations, cellWall, thr, errs
}

// S3Service is the session-concurrency throughput experiment.
func S3Service(opt Options) *Result {
	r := &Result{ID: "S3", Title: "Service throughput vs session concurrency"}
	t, violations, cellWall, thr, errs := ServiceThroughputTable(opt, ServiceConcurrency())
	r.Violations += violations
	r.Tables = append(r.Tables, t)
	r.CellWallMS = cellWall
	r.Notes = append(r.Notes, errs...)
	r.Notes = append(r.Notes,
		"IG1 spaces invocations by Δ0 = 13d per slot, so one session sustains ≈1/13 agreements per d-second while the bounded queue sheds the open-loop excess; C sessions scale toward C/Δ0",
		fmt.Sprintf("sustained throughput at concurrency 16 is ×%.1f the single-session rate (the PR gate requires ≥4×)", thr[16]/thr[1]),
		"p50/p99 are commit−arrival (queue wait included): saturation at low concurrency shows up as latency, exactly the open-loop story",
		"every cell runs the full per-session property battery (Agreement, Timeliness, IA/TPS bounds, per-entry Validity) — violations must be zero",
	)
	return r
}
