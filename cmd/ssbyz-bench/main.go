// Command ssbyz-bench runs the full reproduction suite — experiments
// E1–E10, figures F1–F4, ablation A1, the scaling workload S1, and the
// randomized adversarial campaign S2 of DESIGN.md §4 — and prints every
// regenerated table.
//
// Usage:
//
//	ssbyz-bench [-quick] [-seeds 20] [-parallel N] [-o report.md] [-json suite.json]
//	ssbyz-bench -replay spec.json
//	ssbyz-bench -cluster N [-transport udp|tcp] [-procs] [-node-bin path]
//	            [-agreements K] [-sessions C] [-cluster-d ticks] [-tick dur]
//	            [-virtual] [-fault K]
//
// -replay skips the suite and re-runs one scenario spec (as exported by
// the S2 or V3 campaigns for any property-violating scenario, or written
// by hand — see DESIGN.md §6, §10) against the full property battery, on
// whatever runtime the spec names: the simulator (default), the
// deterministic virtual-time cluster ("virtual" — wire codec, byte-level
// attacks, scripted in-situ transient faults), or real loopback sockets
// ("live"). Replay of sim/virtual specs is exact: the spec carries every
// bit of entropy the run consumes, so the verdict reproduces
// deterministically. The exit status is non-zero when the replayed
// scenario violates any of the paper's proved properties.
//
// -cluster skips the suite and runs a live loopback cluster over real
// sockets (DESIGN.md §7): N nodes, in-process by default or one
// ssbyz-node daemon per node with -procs (the daemon binary is found via
// -node-bin, next to ssbyz-bench, or on PATH). It runs K agreements
// (-agreements, default 1, rotating the General), collects the trace
// (with GET /trace from every daemon in -procs mode), and feeds it
// through the full internal/check property battery; the exit status is
// non-zero if any node fails to decide or any paper bound is violated. -transport picks
// UDP (datagram-per-message, deadline drops — the paper-faithful
// default) or TCP (lossless stream baseline); -cluster-d sets d in ticks
// (default 100) and -tick the wall length of one tick (default 100µs),
// so the default d is 10ms. -sessions C with C > 1 switches the cluster
// to service mode: the K agreements arrive at once as a replicated-log
// burst at General 0 and drain through C concurrent footnote-9 sessions
// (in-process only; incompatible with -procs). -virtual runs the cluster
// under virtual time: the same pipeline on a fake clock over the
// deterministic in-memory wire (DESIGN.md §9), so the run is exactly
// reproducible and -tick is a virtual unit rather than a wall sleep
// (in-process only; incompatible with -procs). -fault K corrupts node
// K's RUNNING protocol state after the first agreement — in place
// through its event loop in-process, or with POST /fault to the
// daemon's REST ops plane with -procs — plants a phantom mark, requires
// the node to re-stabilize within the paper's Δstb = 2Δreset budget,
// then probes the recovered cluster with a fresh agreement; the trace is
// judged in pre-fault and post-recovery halves, since the paper's
// properties are only promised outside the transient window
// (DESIGN.md §10).
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
	"time"

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

	cluster    *int
	transport  *string
	procs      *bool
	nodeBin    *string
	agreements *int
	sessions   *int
	clusterD   *int64
	tick       *time.Duration
	virtual    *bool
	fault      *int
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

		cluster:    fs.Int("cluster", 0, "run a live loopback cluster of this many nodes over real sockets (skips the suite)"),
		transport:  fs.String("transport", "udp", "-cluster socket transport: udp (deadline drops) or tcp (lossless)"),
		procs:      fs.Bool("procs", false, "-cluster: one ssbyz-node process per node instead of in-process"),
		nodeBin:    fs.String("node-bin", "", "-cluster -procs: path to the ssbyz-node binary (default: sibling of ssbyz-bench, then PATH)"),
		agreements: fs.Int("agreements", 1, "-cluster: number of agreements to run (Generals rotate)"),
		sessions:   fs.Int("sessions", 1, "-cluster: concurrent agreement sessions per node; >1 runs the agreements as a replicated-log burst through the service layer"),
		clusterD:   fs.Int64("cluster-d", 100, "-cluster: the paper's d in ticks"),
		tick:       fs.Duration("tick", 100*time.Microsecond, "-cluster: wall-clock length of one tick"),
		virtual:    fs.Bool("virtual", false, "-cluster: run under virtual time on a fake clock over the deterministic in-memory wire (in-process only; the run is byte-reproducible)"),
		fault:      fs.Int("fault", -1, "-cluster: corrupt this RUNNING node's protocol state in place after the first agreement (in-process, or with POST /fault to the daemon with -procs) and require re-stabilization within Δstb = 2Δreset before a probe agreement"),
	}
}

func run() error {
	f := defineFlags(flag.CommandLine)
	flag.Parse()
	var (
		quick    = f.quick
		seeds    = f.seeds
		parallel = f.parallel
		out      = f.out
		jsonOut  = f.jsonOut
		replay   = f.replay

		cluster    = f.cluster
		transport  = f.transport
		procs      = f.procs
		nodeBin    = f.nodeBin
		agreements = f.agreements
		sessions   = f.sessions
		clusterD   = f.clusterD
		tick       = f.tick
	)

	if *replay != "" {
		return replayScenario(*replay)
	}
	if *cluster > 0 {
		return runCluster(clusterOpts{
			n:          *cluster,
			transport:  *transport,
			procs:      *procs,
			nodeBin:    *nodeBin,
			agreements: *agreements,
			sessions:   *sessions,
			d:          ssbyz.Ticks(*clusterD),
			tick:       *tick,
			virtual:    *f.virtual,
			fault:      *f.fault,
		})
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	fmt.Fprintln(w, "# ss-Byz-Agree reproduction suite")
	fmt.Fprintln(w)
	suite, err := ssbyz.RunExperimentsSuite(w, ssbyz.ExperimentOptions{
		Quick:   *quick,
		Seeds:   *seeds,
		Workers: *parallel,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "total property violations: %d\n", suite.Violations)
	if *jsonOut != "" {
		blob, err := json.MarshalIndent(suite, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, append(blob, '\n'), 0o644); err != nil {
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
