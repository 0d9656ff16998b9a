// Command ssbyz-cluster orchestrates a fleet of ss-Byz-Agree nodes
// through a full operations campaign: boot → scale-up → rolling
// replacement → drain, with replicated-log traffic committing at
// General 0 the whole time. It is the cluster-level counterpart of
// ssbyz-node: the daemon exposes the per-node control plane
// (internal/ops REST API), and this command drives it.
//
// Usage:
//
//	ssbyz-cluster -n 4 -roll 2                 # in-process fleet, wall clock
//	ssbyz-cluster -n 4 -roll 2 -virtual        # deterministic virtual time
//	ssbyz-cluster -n 4 -roll 2 -procs          # one ssbyz-node process per
//	                                           # node, driven over REST
//	ssbyz-cluster -spec campaign.json          # declarative campaign spec
//
// The campaign spec (internal/ops.ClusterSpec) extends the cluster
// manifest with a workload (seed, sessions, entries) and a membership
// schedule: scale steps boot slots held back at start, a roll step
// replaces a running node — stop, bump its incarnation epoch on every
// peer, reboot on the same address — a fault step corrupts a running
// node's protocol state in place (POST /fault on a daemon), and the
// drain step ends the run once traffic has committed and every roll and
// fault has re-stabilized. The quick form (-n/-roll) synthesizes the
// canonical schedule: scale the last slot at 10d, roll at 22d, drain at
// 30d. The specs under testdata/ are CI's other forms: drain4.json and
// drain7.json (traffic only) and fault4.json (a fault on node 2).
//
// The verdicts are the paper's: a rolled or faulted node must
// re-stabilize within Δstb = 2Δreset (a roll is a transient fault to a
// self-stabilizing protocol — DESIGN.md §12), a frame replayed from a
// rolled node's previous incarnation must be rejected by every peer
// (epoch_drops), the workload must commit throughout, and the property
// battery must hold over the committed log at every node no step
// touches. The report also prints the initiate→commit latency in units
// of d. The exit status is non-zero if any verdict fails.
//
// Every mode runs internal/ops.RunCampaign, the engine of experiment
// V4, under one verdict; only the fleet differs: an in-process cluster
// over loopback sockets, the same on a fake clock over the
// deterministic in-memory wire (-virtual, byte-reproducible), or one
// ssbyz-node process per slot driven over REST (-procs). The report
// also states the schedule's fault budget against f.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"ssbyz/internal/clock"
	"ssbyz/internal/metrics"
	"ssbyz/internal/ops"
	"ssbyz/internal/simtime"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ssbyz-cluster:", err)
		os.Exit(1)
	}
}

// clusterFlags is the resolved flag set, defined through defineFlags so
// the README flag table can be pinned against it by flags_test.go.
type clusterFlags struct {
	spec      *string
	n         *int
	roll      *int
	d         *int64
	tick      *time.Duration
	transport *string
	sessions  *int
	entries   *int
	seed      *int64
	virtual   *bool
	procs     *bool
	nodeBin   *string
	jsonOut   *string
}

// defineFlags registers every ssbyz-cluster flag on fs; README.md's
// flag table is checked against these definitions.
func defineFlags(fs *flag.FlagSet) *clusterFlags {
	return &clusterFlags{
		spec:      fs.String("spec", "", "campaign spec JSON (ops.ClusterSpec: manifest + workload + membership schedule); overrides the quick form"),
		n:         fs.Int("n", 4, "quick form: committee size (slot n-1 boots late as the scale-up)"),
		roll:      fs.Int("roll", 2, "quick form: node to replace mid-campaign (stop, epoch bump, reboot)"),
		d:         fs.Int64("d", 250, "quick form: the paper's d in ticks"),
		tick:      fs.Duration("tick", 100*time.Microsecond, "wall-clock length of one tick"),
		transport: fs.String("transport", "udp", "socket transport for wall-clock fleets: udp (deadline drops) or tcp (lossless)"),
		sessions:  fs.Int("sessions", 1, "concurrent agreement sessions per node (footnote-9 slots) for the traffic pump"),
		entries:   fs.Int("entries", 0, "replicated-log entries the pump commits during the campaign (0 = the spec's default)"),
		seed:      fs.Int64("seed", 7, "campaign seed: wire delays (virtual) and workload arrivals"),
		virtual:   fs.Bool("virtual", false, "run under virtual time on a fake clock over the deterministic in-memory wire (in-process only; byte-reproducible)"),
		procs:     fs.Bool("procs", false, "one ssbyz-node process per slot, driven through the REST fleet (one session per daemon; udp when the spec rolls a node)"),
		nodeBin:   fs.String("node-bin", "", "-procs: path to the ssbyz-node binary (default: sibling of ssbyz-cluster, then PATH)"),
		jsonOut:   fs.String("json", "", "also write the campaign report as JSON to this file"),
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ssbyz-cluster", flag.ExitOnError)
	f := defineFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	spec, err := loadSpec(f)
	if err != nil {
		return err
	}
	cfg := ops.CampaignConfig{Spec: spec, Transport: *f.transport, Tick: *f.tick}
	if *f.virtual {
		cfg.Clock = clock.NewFake(time.Time{})
	}
	if *f.procs {
		fl, err := ops.NewFleet(*f.nodeBin, spec.Manifest.Params(), *f.transport, *f.tick)
		if err != nil {
			return err
		}
		if cfg.Fleet, err = ops.NewRESTFleet(fl, spec); err != nil {
			return err
		}
	}
	rep, err := ops.RunCampaign(cfg)
	if err != nil {
		return fmt.Errorf("%w\n  fault budget: %s", err, spec.FaultBudget())
	}
	printReport(rep, spec.FaultBudget(), *f.virtual, *f.tick)
	if *f.jsonOut != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*f.jsonOut, append(blob, '\n'), 0o644); err != nil {
			return err
		}
	}
	return judgeReport(spec, rep)
}

// loadSpec resolves the campaign spec: the -spec file, or the quick
// form synthesized from -n/-roll/-d/-seed, with -sessions/-entries
// overrides applied either way; it refuses what a -procs fleet cannot
// run: TCP with a roll step, whose replay probe is a raw datagram, and
// more than one session.
func loadSpec(f *clusterFlags) (ops.ClusterSpec, error) {
	var spec ops.ClusterSpec
	if *f.spec != "" {
		blob, err := os.ReadFile(*f.spec)
		if err != nil {
			return spec, err
		}
		spec, err = ops.ParseSpec(blob)
		if err != nil {
			return spec, err
		}
	} else {
		spec = ops.QuickSpec(*f.n, *f.roll, simtime.Duration(*f.d), *f.seed)
	}
	if *f.sessions > 1 {
		spec.Sessions = *f.sessions
	}
	if *f.entries > 0 {
		spec.Entries = *f.entries
	}
	switch {
	case *f.procs && *f.virtual:
		return spec, fmt.Errorf("-procs and -virtual are mutually exclusive (processes run on the wall clock)")
	case *f.procs && *f.transport != "udp" && slices.ContainsFunc(spec.Steps, func(st ops.Step) bool { return st.Op == ops.OpRoll }):
		return spec, fmt.Errorf("-procs with a roll step needs -transport udp (the replay probe is a raw datagram)")
	case *f.procs && spec.Sessions > 1:
		return spec, fmt.Errorf("-procs runs one agreement session per daemon (ssbyz-node runs a single-session node), not %d; drop -procs to run sessions in process", spec.Sessions)
	}
	return spec, spec.Validate()
}

// printReport renders the campaign for a human. Under -virtual every
// number below is deterministic: two runs print identical bytes.
func printReport(rep *ops.CampaignReport, budget ops.FaultBudget, virtual bool, tick time.Duration) {
	mode := "wall"
	if virtual {
		mode = "virtual"
	}
	pp := rep.Params
	fmt.Printf("campaign done (%s time): n=%d f=%d d=%d, horizon %d ticks\n",
		mode, pp.N, pp.F, pp.D, rep.Horizon)
	fmt.Printf("workload: committed=%d failed=%d dropped=%d\n",
		rep.Committed, rep.Failed, rep.Dropped)
	var lats []float64
	for _, lr := range rep.Logs {
		for _, e := range lr.Committed {
			lats = append(lats, float64(e.CommittedAt-e.InitiatedAt)/float64(pp.D))
		}
	}
	if len(lats) > 0 {
		s := metrics.Summarize(lats)
		fmt.Printf("latency: initiate→commit p50=%.2fd max=%.2fd over %d entries\n", s.P50, s.Max, len(lats))
	}
	for _, sc := range rep.Scales {
		fmt.Printf("scale: node %d up at tick %d\n", sc.Node, sc.At)
	}
	for _, rr := range rep.Rolls {
		restab := "never"
		if rr.RestabTicks >= 0 {
			restab = fmt.Sprintf("%d ticks (%.3f Δstb)", rr.RestabTicks,
				float64(rr.RestabTicks)/float64(pp.DeltaStb()))
			if !virtual {
				restab += fmt.Sprintf(" = %v", (time.Duration(rr.RestabTicks) * tick).Round(time.Millisecond))
			}
		}
		fmt.Printf("roll: node %d at tick %d → incarnation %d, re-stabilized in %s, replay rejected by %d/%d peers\n",
			rr.Node, rr.At, rr.Incarnation, restab, rr.EpochDropPeers, pp.N-1)
	}
	for _, fr := range rep.Faults {
		restab := "never"
		if fr.RestabTicks >= 0 {
			restab = fmt.Sprintf("%d ticks (%.3f Δstb)", fr.RestabTicks,
				float64(fr.RestabTicks)/float64(pp.DeltaStb()))
		}
		fmt.Printf("fault: node %d corrupted in place at tick %d (severity 1000‰), re-stabilized in %s\n",
			fr.Node, fr.At, restab)
	}
	for _, w := range budget.Windows {
		fmt.Printf("budget: %s of node %d non-correct in %s\n", w.Op, w.Node, budget.Span(w.From, w.To))
	}
	fmt.Printf("budget: %s\n", budget)
	fmt.Printf("ig3 back-offs waited out at General 0: %d\n", rep.Backoffs)
	health := make([]string, len(rep.Health))
	for i, st := range rep.Health {
		health[i] = fmt.Sprintf("%d:%s", i, st)
	}
	fmt.Printf("health: %v\n", health)
	types := make([]string, 0, len(rep.EventCounts))
	for k := range rep.EventCounts {
		types = append(types, k)
	}
	sort.Strings(types)
	for _, k := range types {
		fmt.Printf("events: %s=%d\n", k, rep.EventCounts[k])
	}
	fmt.Printf("traffic: sent=%d received=%d epoch_drops=%d late_drops=%d\n",
		rep.Stats.Sent, rep.Stats.Received, rep.Stats.EpochDrops, rep.Stats.LateDrops)
}

// judgeReport turns the campaign verdict (ops.CampaignReport.Verdicts)
// into the exit status. A failed verdict names the schedule's fault
// budget, so a schedule outside the model says so.
func judgeReport(spec ops.ClusterSpec, rep *ops.CampaignReport) error {
	if errs := rep.Verdicts(spec); len(errs) > 0 {
		errs = append(errs, "fault budget: "+spec.FaultBudget().String())
		return fmt.Errorf("campaign verdicts failed:\n  %s", strings.Join(errs, "\n  "))
	}
	fmt.Println("campaign verdicts: all passed")
	return nil
}
