package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"ssbyz/internal/metrics"
	"ssbyz/internal/protocol"
	"ssbyz/internal/scenario"
	"ssbyz/internal/sim"
)

// Experiment S2 "Randomized adversarial campaign": the scenario engine's
// generator (internal/scenario) samples the space the paper's proofs
// quantify over — every Byzantine strategy, every legal arrival pattern —
// and the full property battery checks every sampled point. Quick mode
// runs a few hundred generated scenarios across n ∈ {7, 16, 31}; full
// mode thousands. A violating scenario is a counterexample to the paper's
// claims (or to this reproduction's faithfulness): it is greedily
// minimized and reported as a replayable spec (`ssbyz-bench -replay
// spec.json`), and exported to $SSBYZ_COUNTEREXAMPLE_DIR when set (the CI
// pipeline uploads that directory as a workflow artifact).

// CampaignPlan returns the committee sizes and per-size scenario counts
// of the S2 campaign. Quick mode trades depth for suite-budget fit but
// keeps every committee size — the strategy mix matters more than the
// sample count.
func CampaignPlan(quick bool) (ns, counts []int) {
	if quick {
		return []int{7, 16, 31}, []int{160, 48, 16}
	}
	return []int{7, 16, 31}, []int{2000, 640, 160}
}

// CampaignSeed derives the generator seed of scenario index i at
// committee size n. The formula is part of the replay discipline: a
// violation report names (n, i), and anyone can regenerate the exact spec
// with scenario.Generate(CampaignSeed(n, i), n).
func CampaignSeed(n, i int) int64 { return int64(n)<<32 | int64(i) }

// Counterexample is one minimized property-violating spec found by the
// campaign.
type Counterexample struct {
	N, Index   int
	Violations int
	// Spec is the minimized replayable spec (indented JSON).
	Spec []byte
}

// campaignCell is the outcome of one generated scenario.
type campaignCell struct {
	adversaries int
	conditions  int
	drops       int64
	initiations int
	decided     int
	refused     int
	violations  int
	minimized   []byte // non-nil when violations > 0
}

// runCampaignCell generates, runs, and checks scenario (n, idx), and
// minimizes it on failure.
func runCampaignCell(opt Options, n, idx int) campaignCell {
	sp := scenario.Generate(CampaignSeed(n, idx), n)
	var c campaignCell
	c.adversaries = len(sp.Adversaries)
	c.conditions = len(sp.Conditions)
	c.initiations = len(sp.Script)

	run := func(sp scenario.Spec) (*sim.Result, []string) {
		sc, err := sp.Scenario()
		if err != nil {
			return nil, []string{"Spec: " + err.Error()}
		}
		res, err := sim.Run(sc)
		if err != nil {
			return nil, []string{"Spec: " + err.Error()}
		}
		var out []string
		for _, v := range scenario.Check(res, sp) {
			out = append(out, v.String())
		}
		return res, out
	}

	res, violations := run(sp)
	c.violations = len(violations)
	if res != nil {
		c.drops = res.World.ConditionDrops()
		c.refused = len(res.InitErrs)
		for _, init := range sp.Script {
			for _, d := range res.Decisions(init.G) {
				if d.Decided {
					c.decided++
				}
			}
		}
	}
	if c.violations > 0 {
		min := scenario.Shrink(sp, func(cand scenario.Spec) bool {
			_, vs := run(cand)
			return len(vs) > 0
		})
		c.minimized = min.Marshal()
	}
	return c
}

// CampaignTable runs the campaign over the given (n, count) plan and
// returns the result table, the violation total, and any minimized
// counterexamples. Every figure is a pure function of the plan — cells
// are sealed (spec ← CampaignSeed(n, i)), merges run in input order — so
// table, total, and counterexample set are byte-identical across worker
// counts and machines.
func CampaignTable(opt Options, ns, counts []int) (*metrics.Table, int, []Counterexample) {
	t := metrics.NewTable("randomized adversarial campaign (generated scenarios, full battery)",
		"n", "f", "scenarios", "adversaries", "conditions", "msgs dropped",
		"initiations", "refused", "decide returns", "violations")
	type cfg struct{ n, count int }
	cfgs := make([]cfg, len(ns))
	maxCount := 0
	for i, n := range ns {
		cfgs[i] = cfg{n: n, count: counts[i]}
		if counts[i] > maxCount {
			maxCount = counts[i]
		}
	}
	// One sweep cell per scenario index; sizes with fewer scenarios leave
	// the tail of their row empty.
	cells := sweep(opt, cfgs, maxCount, func(c cfg, idx int) *campaignCell {
		if idx >= c.count {
			return nil
		}
		cell := runCampaignCell(opt, c.n, idx)
		return &cell
	})
	violations := 0
	var examples []Counterexample
	for i, n := range ns {
		pp := protocol.DefaultParams(n)
		var agg campaignCell
		for idx, c := range cells[i] {
			if c == nil {
				continue
			}
			agg.adversaries += c.adversaries
			agg.conditions += c.conditions
			agg.drops += c.drops
			agg.initiations += c.initiations
			agg.decided += c.decided
			agg.refused += c.refused
			agg.violations += c.violations
			if c.minimized != nil {
				examples = append(examples, Counterexample{
					N: n, Index: idx, Violations: c.violations, Spec: c.minimized,
				})
			}
		}
		violations += agg.violations
		t.AddRow(n, pp.F, counts[i], agg.adversaries, agg.conditions, agg.drops,
			agg.initiations, agg.refused, agg.decided, agg.violations)
	}
	return t, violations, examples
}

// CounterexampleDirEnv names the environment variable that, when set,
// makes S2 export every minimized counterexample spec as a JSON file in
// that directory (created if missing). The CI pipeline sets it and
// uploads the directory as a workflow artifact.
const CounterexampleDirEnv = "SSBYZ_COUNTEREXAMPLE_DIR"

// counterexampleDir returns the export directory from the environment,
// empty when exporting is off.
func counterexampleDir() string { return os.Getenv(CounterexampleDirEnv) }

// exportCounterexamples writes minimized specs to dir; file names encode
// the experiment and the (n, index) coordinates so the matching seed
// formula (CampaignSeed for S2, V3CampaignSeed for V3) regenerates the
// original.
func exportCounterexamples(dir, prefix string, examples []Counterexample) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, ex := range examples {
		name := fmt.Sprintf("%s_n%d_i%d.json", prefix, ex.N, ex.Index)
		if err := os.WriteFile(filepath.Join(dir, name), ex.Spec, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// compactJSON re-marshals an indented spec into its one-line form for
// report notes, falling back to the input on error.
func compactJSON(spec []byte) []byte {
	var compact json.RawMessage = spec
	buf, err := json.Marshal(compact)
	if err != nil {
		return spec
	}
	return buf
}

// S2Campaign is the randomized adversarial campaign: scenario-engine
// fuzzing of the full property battery, with violating specs minimized
// into replayable counterexamples.
func S2Campaign(opt Options) *Result {
	r := &Result{ID: "S2", Title: "Randomized adversarial campaign"}
	ns, counts := CampaignPlan(opt.Quick)
	t, violations, examples := CampaignTable(opt, ns, counts)
	r.Violations += violations
	r.Tables = append(r.Tables, t)
	total := 0
	for _, c := range counts {
		total += c
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("%d generated scenarios (composed/staged/adaptive adversaries, partitions, jitter, churn), every run checked by the full battery", total),
		"scenario i at size n regenerates from scenario.Generate(CampaignSeed(n,i), n); specs are self-contained, so any violation replays with `ssbyz-bench -replay spec.json`",
	)
	for _, ex := range examples {
		r.Notes = append(r.Notes, fmt.Sprintf(
			"COUNTEREXAMPLE n=%d scenario=%d (%d violations), minimized spec: %s",
			ex.N, ex.Index, ex.Violations, compactJSON(ex.Spec)))
	}
	if dir := counterexampleDir(); dir != "" && len(examples) > 0 {
		if err := exportCounterexamples(dir, "S2", examples); err != nil {
			r.Notes = append(r.Notes, "counterexample export failed: "+err.Error())
		}
	}
	return r
}
