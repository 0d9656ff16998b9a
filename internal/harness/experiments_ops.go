package harness

import (
	"bytes"
	"fmt"
	"time"

	"ssbyz/internal/clock"
	"ssbyz/internal/metrics"
	"ssbyz/internal/ops"
	"ssbyz/internal/protocol"
)

// Experiment V4 "Cluster operations campaign": the ops layer's
// boot→scale→roll→drain schedule (DESIGN.md §12) executed end to end —
// an n-node fleet boots with one slot held back, the service pump
// commits replicated-log entries at General 0 throughout, the held slot
// scales up mid-run, a running node is rolled (stop → incarnation bump
// on every peer → reboot), and the fleet drains once the workload is
// committed and the replacement has re-stabilized. The claims under
// test are the ones that make day-2 operations safe on this protocol:
// the rolled node re-converges within the paper's Δstb = 2Δreset budget
// (a roll is just a transient fault to a self-stabilizing system), and
// the old incarnation is provably dead — a frame replayed from it is
// rejected by every peer at the first step of the acceptance pipeline
// (epoch_drops). V4 runs the campaign under virtual time (exact,
// byte-identical across runs and worker counts — it gates CI inside
// All()). The same campaign over real UDP loopback sockets under the
// wall clock is `ssbyz-cluster -n 4 -roll 2`.

// v4Config is one V4 campaign configuration.
type v4Config struct {
	n, roll int
}

// opsCell is one campaign run reduced to its operational verdicts.
type opsCell struct {
	committed  int
	restab     int64
	replayPeer int
	canon      []byte
	violations int
	errs       []string
}

// runOpsCell executes one virtual-time campaign and judges it with the
// campaign verdict (ops.CampaignReport.Verdicts): schedule executed,
// workload committed, roll re-stabilized within Δstb, replay probe
// rejected by every peer, final fleet health stabilized, battery clean.
func runOpsCell(n, roll int, seed int64) opsCell {
	var c opsCell
	fail := func(format string, args ...any) {
		c.violations++
		c.errs = append(c.errs, fmt.Sprintf("ops n=%d seed=%d: %s", n, seed, fmt.Sprintf(format, args...)))
	}
	spec := ops.QuickSpec(n, roll, liveD, seed)
	rep, err := ops.RunCampaign(ops.CampaignConfig{
		Spec:  spec,
		Tick:  liveTick,
		Clock: clock.NewFake(time.Time{}),
	})
	if err != nil {
		fail("campaign: %v", err)
		return c
	}
	c.committed = rep.Committed
	c.canon = rep.Canonical()
	if len(rep.Rolls) > 0 {
		c.restab, c.replayPeer = rep.Rolls[0].RestabTicks, rep.Rolls[0].EpochDropPeers
	}
	for _, e := range rep.Verdicts(spec) {
		fail("%s", e)
	}
	return c
}

// V4OpsCampaign is the deterministic operations campaign: live
// membership on the virtual wire. Every number is exact; the explicit
// determinism gate reruns the first cell and compares the canonical
// bytes (report + full sorted trace).
func V4OpsCampaign(opt Options) *Result {
	r := &Result{ID: "V4", Title: "Cluster operations campaign: boot→scale→roll→drain under virtual time"}
	seeds := 2
	configs := []v4Config{{4, 2}}
	if !opt.Quick {
		seeds = 3
		configs = append(configs, v4Config{7, 3})
	}
	grid := sweep(opt, configs, seeds, func(cfg v4Config, seed int) opsCell {
		return runOpsCell(cfg.n, cfg.roll, int64(cfg.n)*100+int64(seed))
	})
	t := metrics.NewTable(
		fmt.Sprintf("ops campaign over the virtual wire (d = %d ticks; scale@10d, roll@22d; all columns deterministic)", liveD),
		"n", "f", "seeds", "committed/seed", "restab p50 ticks", "restab max (Δstb)",
		"replay-rejecting peers", "violations")
	for ci, cfg := range configs {
		pp := protocol.DefaultParams(cfg.n)
		pp.D = liveD
		var restabs []float64
		committed, peers, violations := 0, 0, 0
		for _, c := range grid[ci] {
			committed += c.committed
			peers += c.replayPeer
			violations += c.violations
			if c.restab >= 0 {
				restabs = append(restabs, float64(c.restab))
			}
			for _, e := range c.errs {
				r.Notes = append(r.Notes, e)
			}
		}
		s := metrics.Summarize(restabs)
		t.AddRow(cfg.n, pp.F, seeds,
			fmt.Sprintf("%.1f", float64(committed)/float64(seeds)),
			fmt.Sprintf("%.0f", s.P50),
			fmt.Sprintf("%.3f", s.Max/float64(pp.DeltaStb())),
			fmt.Sprintf("%d/%d", peers, seeds*(cfg.n-1)),
			violations)
		r.Violations += violations
	}
	r.Tables = append(r.Tables, t)

	// The determinism gate: the same spec and seed must reproduce the
	// campaign byte for byte — report and full sorted trace.
	base := runOpsCell(configs[0].n, configs[0].roll, int64(configs[0].n)*100)
	if !bytes.Equal(base.canon, grid[0][0].canon) {
		r.Violations++
		r.Notes = append(r.Notes, fmt.Sprintf(
			"determinism: repeated campaign diverged (%d vs %d canonical bytes)",
			len(base.canon), len(grid[0][0].canon)))
	}
	r.Notes = append(r.Notes,
		"live membership as a deterministic schedule: the absent slot boots at 10d, a node is stopped, epoch-bumped, and rebooted at 22d, and the fleet drains only after the workload commits and the replacement decides again — all on the fake clock, byte-identical across runs and worker counts",
		"the replay-rejecting column is the incarnation proof: a frame forged from the rolled node's previous epoch id is offered to every peer and must die at the first acceptance-pipeline step (epoch_drops) on all of them (DESIGN.md §12)",
		fmt.Sprintf("determinism gate: the first cell reruns and its canonical rendering (%d bytes) matched byte for byte", len(base.canon)),
	)
	return r
}
