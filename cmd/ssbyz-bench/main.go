// Command ssbyz-bench runs the full reproduction suite — experiments
// E1–E10, figures F1–F4, ablation A1, the scaling workload S1, and the
// randomized adversarial campaign S2 of DESIGN.md §4 — and prints every
// regenerated table.
//
// Usage:
//
//	ssbyz-bench [-quick] [-seeds 20] [-parallel N] [-o report.md] [-json suite.json]
//	ssbyz-bench -replay spec.json
//
// -replay skips the suite and re-runs one scenario spec (as exported by
// the S2 or V3 campaigns for any property-violating scenario, or written
// by hand — see DESIGN.md §6, §10) against the full property battery, on
// whatever runtime the spec names: the simulator (default), the
// deterministic virtual-time cluster ("virtual" — wire codec, byte-level
// attacks, rotating Generals, scripted in-situ transient faults whose
// phantom state must be swept within Δstb), or real loopback sockets
// ("live"). Replay of sim/virtual specs is exact: the spec carries every
// bit of entropy the run consumes, so the verdict reproduces
// deterministically. The exit status is non-zero when the replayed
// scenario violates any of the paper's proved properties. The specs
// under testdata/ are CI's virtual cluster forms: agree7.json (n = 7,
// two Generals) and fault4.json (n = 4, a fault on node 1 between a
// pre-fault and a post-Δstb agreement). Clusters on the wall clock, in
// process or one ssbyz-node daemon per node, are ssbyz-cluster's.
//
// The full suite takes many minutes single-threaded (S1 stretches to
// n = 256); -parallel fans the independent simulation cells across N
// workers (default GOMAXPROCS) with byte-identical output, and -quick
// shrinks the sweeps for a fast smoke run (S1 still sweeps to n = 128 —
// only its seed count shrinks and the n = 256 point is dropped). -json
// additionally writes the machine-readable suite (the BENCH_*.json
// artifact of the perf trajectory); every table in it is deterministic,
// and the intentionally machine-varying fields — wall_ms, peak_alloc_mb,
// and S1's per-n cell_wall_ms — record what the run cost (DESIGN.md §5).
// The exit status is non-zero if any property violation is found (a
// faithful build reports zero).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"ssbyz"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ssbyz-bench:", err)
		os.Exit(1)
	}
}

// benchFlags is the resolved flag set. It is defined through defineFlags
// so the README flag table can be pinned against it by flags_test.go.
type benchFlags struct {
	quick    *bool
	seeds    *int
	parallel *int
	out      *string
	jsonOut  *string
	replay   *string
}

// defineFlags registers every ssbyz-bench flag on fs. The definitions
// here are the single source of truth; README.md's flag table is checked
// against them by flags_test.go.
func defineFlags(fs *flag.FlagSet) *benchFlags {
	return &benchFlags{
		quick:    fs.Bool("quick", false, "shrink sweeps for a fast smoke run"),
		seeds:    fs.Int("seeds", 0, "override repetitions per configuration"),
		parallel: fs.Int("parallel", runtime.GOMAXPROCS(0), "concurrent simulation cells (1 = sequential)"),
		out:      fs.String("o", "", "also write the report to this file"),
		jsonOut:  fs.String("json", "", "write the machine-readable suite to this file"),
		replay:   fs.String("replay", "", "replay a scenario spec JSON file against the property battery on the runtime it names (skips the suite)"),
	}
}

func run() error {
	f := defineFlags(flag.CommandLine)
	flag.Parse()
	if *f.replay != "" {
		return replayScenario(*f.replay)
	}

	var w io.Writer = os.Stdout
	if *f.out != "" {
		file, err := os.Create(*f.out)
		if err != nil {
			return err
		}
		defer file.Close()
		w = io.MultiWriter(os.Stdout, file)
	}

	fmt.Fprintln(w, "# ss-Byz-Agree reproduction suite")
	fmt.Fprintln(w)
	suite, err := ssbyz.RunExperimentsSuite(w, ssbyz.ExperimentOptions{
		Quick:   *f.quick,
		Seeds:   *f.seeds,
		Workers: *f.parallel,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "total property violations: %d\n", suite.Violations)
	if *f.jsonOut != "" {
		blob, err := json.MarshalIndent(suite, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*f.jsonOut, append(blob, '\n'), 0o644); err != nil {
			return err
		}
	}
	if suite.Violations != 0 {
		return fmt.Errorf("%d property violations", suite.Violations)
	}
	return nil
}

// replayScenario re-runs one exported scenario spec with the full battery
// and prints the deterministic verdict.
func replayScenario(path string) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	rep, err := ssbyz.ReplayScenario(blob)
	if err != nil {
		return err
	}
	sp := rep.Spec
	runtime := sp.Runtime
	if runtime == "" {
		runtime = ssbyz.RuntimeSim
	}
	fmt.Printf("replaying scenario: runtime=%s n=%d f=%d seed=%d adversaries=%d conditions=%d initiations=%d faults=%d\n",
		runtime, sp.N, sp.Params().F, sp.Seed, len(sp.Adversaries), len(sp.Conditions), len(sp.Script), len(sp.Faults))
	for _, init := range sp.Script {
		decided := len(rep.Report.DecisionsFor(init.G, init.Value))
		fmt.Printf("  G%d initiated %q at t=%d: %d correct decide returns\n",
			init.G, init.Value, init.At, decided)
	}
	if rep.Live != nil {
		s := rep.Live.Stats
		fmt.Printf("  frames: sent=%d received=%d\n", s.Sent, s.Received)
		fmt.Printf("  attacks injected: corrupt=%d replay=%d forge=%d dup=%d reorder-held=%d\n",
			s.CorruptFrames, s.ReplayFrames, s.ForgeFrames, s.DupFrames, s.ReorderHolds)
		fmt.Printf("  defenses fired: decode=%d epoch=%d auth=%d late=%d dup=%d seq-stale=%d clamps=%d rate-deferrals=%d\n",
			s.DecodeDrops, s.EpochDrops, s.AuthDrops, s.LateDrops, s.DupDrops, s.SeqStale, s.Clamps, s.RateDeferrals)
		for _, rs := range rep.Live.Restab {
			if rs.Ticks < 0 {
				fmt.Printf("  fault at t=%d on node %d: NOT re-stabilized within Δstb = %d ticks\n",
					rs.At, rs.Node, rs.Budget)
			} else {
				fmt.Printf("  fault at t=%d on node %d: re-stabilized in %d ticks (Δstb budget %d)\n",
					rs.At, rs.Node, rs.Ticks, rs.Budget)
			}
		}
	} else {
		fmt.Printf("  total messages: %d\n", rep.Report.Messages())
	}
	if len(rep.Violations) > 0 {
		for _, v := range rep.Violations {
			fmt.Println("  VIOLATION", v)
		}
		return fmt.Errorf("%d property violations reproduced", len(rep.Violations))
	}
	fmt.Println("scenario replayed clean: every checked paper bound holds")
	return nil
}
