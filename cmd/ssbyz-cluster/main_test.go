package main

import (
	"flag"
	"strings"
	"testing"

	"ssbyz/internal/ops"
	"ssbyz/internal/protocol"
)

// TestJudgeReportCountsMembershipSteps checks the campaign verdict
// against the spec's schedule: a report whose roll never ran fails, even
// though every recorded verdict in it holds.
func TestJudgeReportCountsMembershipSteps(t *testing.T) {
	spec := ops.QuickSpec(4, 2, 250, 1)
	pp := protocol.DefaultParams(4)
	pp.D = 250
	full := ops.CampaignReport{
		Params:    pp,
		Committed: 8,
		Scales:    []ops.ScaleReport{{Node: 3, At: 2500}},
		Rolls: []ops.RollReport{{Node: 2, At: 5500, Incarnation: 1,
			RestabTicks: 100, WithinDeltaStb: true, EpochDropPeers: 3}},
		Health: []ops.State{ops.StateStabilized, ops.StateStabilized, ops.StateStabilized, ops.StateStabilized},
	}
	if err := judgeReport(spec, &full); err != nil {
		t.Fatalf("complete campaign judged failed: %v", err)
	}
	noRoll := full
	noRoll.Rolls = nil
	err := judgeReport(spec, &noRoll)
	if err == nil || !strings.Contains(err.Error(), "0 rolls executed") {
		t.Fatalf("campaign whose roll never ran: verdict %v, want a membership failure", err)
	}
	noScale := full
	noScale.Scales = nil
	if err := judgeReport(spec, &noScale); err == nil {
		t.Fatal("campaign whose scale never ran passed")
	}
}

// TestProcsRefusesSessions: the daemons run one session each, so -procs
// with -sessions > 1 is refused up front rather than run as one session.
func TestProcsRefusesSessions(t *testing.T) {
	fs := flag.NewFlagSet("ssbyz-cluster", flag.ContinueOnError)
	f := defineFlags(fs)
	if err := fs.Parse([]string{"-procs", "-sessions", "4"}); err != nil {
		t.Fatal(err)
	}
	_, err := loadSpec(f)
	if err == nil || !strings.Contains(err.Error(), "-procs runs one agreement session per daemon") {
		t.Fatalf("-procs -sessions 4: %v, want a refusal", err)
	}
	if err := fs.Parse([]string{"-sessions", "4"}); err != nil {
		t.Fatal(err)
	}
	*f.procs = false
	if _, err := loadSpec(f); err != nil {
		t.Fatalf("in-process -sessions 4 refused: %v", err)
	}
}
