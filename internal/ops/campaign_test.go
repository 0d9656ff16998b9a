package ops

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"ssbyz/internal/clock"
	"ssbyz/internal/core"
	"ssbyz/internal/nettrans"
	"ssbyz/internal/protocol"
	"ssbyz/internal/simtime"
)

// runVirtualCampaign executes the canonical quick campaign (n=4, scale
// node 3 at 10d, roll node 2 at 22d, drain) under a fresh fake clock and
// returns the report plus a canonical byte rendering: the JSON report
// (trace pointer stripped) followed by every trace event, sorted and
// wire-encoded. Two runs of the same seed must produce identical bytes.
func runVirtualCampaign(t *testing.T, seed int64) (*CampaignReport, []byte) {
	t.Helper()
	rep, err := RunCampaign(CampaignConfig{
		Spec:  QuickSpec(4, 2, 250, seed),
		Tick:  100 * time.Microsecond,
		Clock: clock.NewFake(time.Time{}),
	})
	if err != nil {
		t.Fatalf("RunCampaign: %v", err)
	}

	return rep, rep.Canonical()
}

// TestCampaignVirtual drives the full boot→scale→roll→drain campaign in
// virtual time and checks the operational claims the orchestrator
// asserts: the workload commits, the scale-up and roll both execute, the
// rolled node re-stabilizes within Δstb = 2Δreset, every peer rejects
// the old incarnation's replay probe, and the fleet's final health is
// stabilized across the board.
func TestCampaignVirtual(t *testing.T) {
	rep, _ := runVirtualCampaign(t, 7)

	if rep.Committed == 0 || rep.Failed != 0 || rep.Dropped != 0 {
		t.Fatalf("workload: committed=%d failed=%d dropped=%d",
			rep.Committed, rep.Failed, rep.Dropped)
	}
	if len(rep.Scales) != 1 || rep.Scales[0].Node != 3 {
		t.Fatalf("scales = %+v", rep.Scales)
	}
	if len(rep.Rolls) != 1 {
		t.Fatalf("rolls = %+v", rep.Rolls)
	}
	roll := rep.Rolls[0]
	if roll.Node != 2 || roll.Incarnation != 1 {
		t.Fatalf("roll = %+v", roll)
	}
	if roll.RestabTicks < 0 || !roll.WithinDeltaStb {
		t.Fatalf("roll never re-stabilized within Δstb=%d: %+v", rep.Params.DeltaStb(), roll)
	}
	if roll.EpochDropPeers != rep.Params.N-1 {
		t.Fatalf("replay probe rejected by %d peers, want %d", roll.EpochDropPeers, rep.Params.N-1)
	}
	for id, st := range rep.Health {
		if st != StateStabilized {
			t.Fatalf("final health[%d] = %q, want %q", id, st, StateStabilized)
		}
	}
	if rep.EventCounts["decide"] == 0 || rep.EventCounts["stabilized"] == 0 {
		t.Fatalf("event counts = %v", rep.EventCounts)
	}
	if simtime.Duration(rep.Horizon) <= 30*rep.Params.D {
		t.Fatalf("horizon %d did not pass the drain tick", rep.Horizon)
	}
}

// TestCampaignDeterministic pins V4's core property: the same spec and
// seed produce byte-identical campaigns — report and full sorted trace —
// across independent runs under virtual time.
func TestCampaignDeterministic(t *testing.T) {
	_, a := runVirtualCampaign(t, 7)
	_, b := runVirtualCampaign(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatalf("campaign not deterministic: run lengths %d vs %d", len(a), len(b))
	}
	_, c := runVirtualCampaign(t, 8)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical campaigns — seed is not wired through")
	}
}

// TestFaultBudget pins the canonical schedule against the model: at
// n = 4 (f = 1) the scaled and the rolled node overlap inside Δnode, so
// two nodes are non-correct at once; at n = 7 (f = 2) that fits.
func TestFaultBudget(t *testing.T) {
	four := QuickSpec(4, 2, 250, 7).FaultBudget()
	if four.Peak != 2 || four.F != 1 || four.PeakFrom != 22*250 || four.PeakTo != 123*250 {
		t.Fatalf("n=4 budget: %+v", four)
	}
	if got, want := four.String(), "2 non-correct nodes in [22d, 123d) against f = 1: schedule outside the model"; got != want {
		t.Fatalf("n=4 budget reads %q, want %q", got, want)
	}
	seven := QuickSpec(7, 2, 250, 7).FaultBudget()
	if got, want := seven.String(), "2 non-correct nodes in [22d, 171d) against f = 2: schedule inside the model"; got != want {
		t.Fatalf("n=7 budget reads %q, want %q", got, want)
	}
}

// TestCampaignJudgesEveryRoll: two rolls d apart, so the second is
// appended to the report before the first has re-stabilized; each must
// still carry its own verdicts.
func TestCampaignJudgesEveryRoll(t *testing.T) {
	spec := QuickSpec(7, 2, 250, 7)
	spec.Steps = []Step{
		{Op: OpRoll, Node: 2, At: 22 * 250},
		{Op: OpRoll, Node: 3, At: 23 * 250},
		{Op: OpDrain, At: 30 * 250},
	}
	rep, err := RunCampaign(CampaignConfig{Spec: spec, Clock: clock.NewFake(time.Time{})})
	if err != nil {
		t.Fatalf("RunCampaign: %v", err)
	}
	for _, rr := range rep.Rolls {
		if rr.RestabTicks < 0 || !rr.WithinDeltaStb || rr.EpochDropPeers != 6 {
			t.Fatalf("roll of node %d unjudged: %+v", rr.Node, rr)
		}
	}
	if len(rep.Rolls) != 2 {
		t.Fatalf("rolls = %+v", rep.Rolls)
	}
}

// refusalScript is a Backend that answers each initiation with the next
// scripted error.
type refusalScript []error

func (r *refusalScript) Initiate(g protocol.NodeID, slots []int, v protocol.Value) (int, protocol.Value, error) {
	err := (*r)[0]
	*r = (*r)[1:]
	return slots[0], v, err
}

// TestBackoffCounterCountsEpisodes: a run of IG3 refusals after an
// accepted initiation is one episode; IG1 refusals and a back-off with
// no acceptance before it are none.
func TestBackoffCounterCountsEpisodes(t *testing.T) {
	script := refusalScript{core.ErrBackoff, nil, core.ErrTooSoon, core.ErrBackoff, core.ErrBackoff, nil, core.ErrBackoff}
	b := &backoffCounter{Backend: &script}
	for range len(script) {
		b.Initiate(0, []int{0}, "v")
	}
	if b.episodes != 2 {
		t.Fatalf("episodes = %d, want 2", b.episodes)
	}
}

// TestCampaignBatteryJudgesSteadyNodes: the campaign verdict runs the
// property battery over the pump's logs at the nodes no step touches.
// Over the canonical schedule it is clean; counting every node correct
// instead must fail it, because the scaled slot is absent for the first
// entries and so never returns from them.
func TestCampaignBatteryJudgesSteadyNodes(t *testing.T) {
	for _, n := range []int{4, 7} {
		for _, sessions := range []int{1, 3} {
			for seed := int64(1); seed <= 2; seed++ {
				spec := QuickSpec(n, 2, 250, seed)
				spec.Sessions = sessions
				rep, err := RunCampaign(CampaignConfig{Spec: spec, Clock: clock.NewFake(time.Time{})})
				if err != nil {
					t.Fatalf("n=%d sessions=%d seed=%d: %v", n, sessions, seed, err)
				}
				if errs := rep.Verdicts(spec); len(errs) > 0 {
					t.Fatalf("n=%d sessions=%d seed=%d: verdicts failed: %v", n, sessions, seed, errs)
				}
				all := make([]protocol.NodeID, n)
				for i := range all {
					all[i] = protocol.NodeID(i)
				}
				rep.Result = nettrans.BuildResult(rep.Params, rep.Result.Rec.Events(), all, rep.Result.Scenario.RunFor)
				if !slices.ContainsFunc(rep.Verdicts(spec), func(e string) bool { return strings.HasPrefix(e, "battery: ") }) {
					t.Errorf("n=%d sessions=%d seed=%d: the battery passed with the scaled and rolled nodes counted correct",
						n, sessions, seed)
				}
			}
		}
	}
}
