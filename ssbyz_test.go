package ssbyz_test

import (
	"strings"
	"testing"
	"time"

	"ssbyz"
)

func TestSimulationQuickstart(t *testing.T) {
	s, err := ssbyz.NewSimulation(ssbyz.Config{N: 7, Seed: 1})
	if err != nil {
		t.Fatalf("NewSimulation: %v", err)
	}
	d := s.Params().D
	s.ScheduleAgreement(0, "launch", 2*d)
	report, err := s.Run(0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !report.Unanimous(0, "launch") {
		t.Errorf("not unanimous: %+v", report.Decisions(0))
	}
	if vs := report.Check(0); len(vs) != 0 {
		t.Errorf("property violations: %v", vs)
	}
	if vs := report.CheckValidity(0, 2*d, "launch"); len(vs) != 0 {
		t.Errorf("validity violations: %v", vs)
	}
	if report.Messages() == 0 {
		t.Error("no messages counted")
	}
}

func TestSimulationRejectsBadConfig(t *testing.T) {
	cases := []ssbyz.Config{
		{N: 3, F: 1},  // violates n > 3f
		{N: 7, F: 10}, // F above optimal bound
	}
	for _, cfg := range cases {
		if _, err := ssbyz.NewSimulation(cfg); err == nil {
			t.Errorf("NewSimulation(%+v) accepted an invalid config", cfg)
		}
	}
}

func TestSimulationFaultyGeneralNoSplit(t *testing.T) {
	s, err := ssbyz.NewSimulation(ssbyz.Config{N: 7, Seed: 3})
	if err != nil {
		t.Fatalf("NewSimulation: %v", err)
	}
	d := s.Params().D
	s.WithFaulty(0, ssbyz.EquivocatingGeneral(2*d, "a", "b"))
	s.WithFaulty(6, ssbyz.Colluder())
	report, err := s.Run(5 * s.Params().DeltaAgr())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if vs := report.Check(0); len(vs) != 0 {
		t.Errorf("violations under equivocation: %v", vs)
	}
	values := make(map[ssbyz.Value]bool)
	for _, dec := range report.Decisions(0) {
		if dec.Decided {
			values[dec.Value] = true
		}
	}
	if len(values) > 1 {
		t.Errorf("value split: %v", values)
	}
}

func TestSimulationTransientRecovery(t *testing.T) {
	s, err := ssbyz.NewSimulation(ssbyz.Config{N: 7, Seed: 4})
	if err != nil {
		t.Fatalf("NewSimulation: %v", err)
	}
	pp := s.Params()
	s.WithTransientFault(99, 1.0)
	// Initiate well after Δstb: the system must have converged by then.
	at := pp.DeltaStb() + 2*pp.D
	s.ScheduleAgreement(0, "recovered", at)
	report, err := s.Run(at + 3*pp.DeltaAgr())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if errs := report.InitiationErrors(); len(errs) != 0 {
		t.Fatalf("initiation refused after Δstb: %v", errs)
	}
	if !report.Unanimous(0, "recovered") {
		t.Errorf("no unanimous agreement after stabilization: %+v", report.Decisions(0))
	}
	if vs := report.CheckValidity(0, at, "recovered"); len(vs) != 0 {
		t.Errorf("validity violations after stabilization: %v", vs)
	}
}

func TestSimulationIG1Refusal(t *testing.T) {
	s, err := ssbyz.NewSimulation(ssbyz.Config{N: 4, Seed: 5})
	if err != nil {
		t.Fatalf("NewSimulation: %v", err)
	}
	d := s.Params().D
	s.ScheduleAgreement(0, "one", 2*d)
	s.ScheduleAgreement(0, "two", 3*d) // < Δ0 after the first
	report, err := s.Run(0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	errs := report.InitiationErrors()
	if len(errs) != 1 {
		t.Fatalf("want exactly 1 refusal, got %v", errs)
	}
	if err, ok := errs[1]; !ok || !strings.Contains(err.Error(), "IG1") {
		t.Errorf("refusal = %v, want IG1 on schedule index 1", errs)
	}
}

func TestLiveClusterEndToEnd(t *testing.T) {
	lc, err := ssbyz.NewLiveCluster(ssbyz.LiveConfig{N: 4, Seed: 6})
	if err != nil {
		t.Fatalf("NewLiveCluster: %v", err)
	}
	defer lc.Stop()
	if err := lc.Initiate(0, "hello"); err != nil {
		t.Fatalf("Initiate: %v", err)
	}
	v, err := lc.Await(0, 10*time.Second)
	if err != nil {
		t.Fatalf("Await: %v", err)
	}
	if v != "hello" {
		t.Errorf("decided %q, want \"hello\"", v)
	}
}
