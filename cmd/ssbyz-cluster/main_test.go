package main

import (
	"flag"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ssbyz/internal/clock"
	"ssbyz/internal/ops"
)

// TestJudgeReportCountsMembershipSteps checks the campaign verdict
// against the spec's schedule: a report whose roll or scale never ran
// fails, even though every recorded verdict in it holds.
func TestJudgeReportCountsMembershipSteps(t *testing.T) {
	spec := ops.QuickSpec(4, 2, 250, 1)
	full, err := ops.RunCampaign(ops.CampaignConfig{Spec: spec, Clock: clock.NewFake(time.Time{})})
	if err != nil {
		t.Fatal(err)
	}
	if err := judgeReport(spec, full); err != nil {
		t.Fatalf("complete campaign judged failed: %v", err)
	}
	noRoll := *full
	noRoll.Rolls = nil
	err = judgeReport(spec, &noRoll)
	if err == nil || !strings.Contains(err.Error(), "membership: 1 scales, 0 rolls and 0 faults executed") {
		t.Fatalf("campaign whose roll never ran: verdict %v, want a membership failure", err)
	}
	noScale := *full
	noScale.Scales = nil
	if err := judgeReport(spec, &noScale); err == nil {
		t.Fatal("campaign whose scale never ran passed")
	}
}

// TestProcsRefusesSessions: the daemons run one session each, so -procs
// with -sessions > 1 is refused up front rather than run as one session.
// TCP is refused only for a spec with a roll step, whose replay probe is
// a raw datagram.
func TestProcsRefusesSessions(t *testing.T) {
	load := func(args ...string) error {
		fs := flag.NewFlagSet("ssbyz-cluster", flag.ContinueOnError)
		f := defineFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		_, err := loadSpec(f)
		return err
	}
	if err := load("-procs", "-sessions", "4"); err == nil || !strings.Contains(err.Error(), "-procs runs one agreement session per daemon") {
		t.Fatalf("-procs -sessions 4: %v, want a refusal", err)
	}
	if err := load("-sessions", "4"); err != nil {
		t.Fatalf("in-process -sessions 4 refused: %v", err)
	}
	if err := load("-procs", "-transport", "tcp"); err == nil || !strings.Contains(err.Error(), "-procs with a roll step needs -transport udp") {
		t.Fatalf("-procs -transport tcp with a roll: %v, want a refusal", err)
	}
	for _, spec := range []string{"testdata/drain4.json", "testdata/fault4.json"} {
		if err := load("-procs", "-transport", "tcp", "-spec", spec); err != nil {
			t.Fatalf("-procs -transport tcp -spec %s refused: %v", spec, err)
		}
	}
}

// TestCommittedSpecsRunClean runs every campaign spec committed under
// testdata/ — the forms CI runs on the wall clock and over -procs — on
// virtual time, and CI's three-session form, and requires every verdict
// to pass, so the data CI depends on cannot rot.
func TestCommittedSpecsRunClean(t *testing.T) {
	paths, err := filepath.Glob("testdata/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed specs under testdata/ (%v)", err)
	}
	for _, p := range paths {
		if err := run([]string{"-spec", p, "-virtual"}); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
	if err := run([]string{"-spec", "testdata/drain4.json", "-sessions", "3", "-entries", "6", "-virtual"}); err != nil {
		t.Errorf("drain4.json with three sessions: %v", err)
	}
}
