// Package harness defines the experiment suite of the reproduction: one
// experiment per proved bound / headline claim of the paper (E1–E10), the
// figure-shaped series (F1–F4), the Block R ablation (A1), the large-n
// scaling workload (S1), and the randomized adversarial campaign (S2),
// as indexed in DESIGN.md §4. Each
// experiment regenerates the report tables that `ssbyz-bench -o` writes;
// the root bench_test.go exposes one testing.B target per experiment and
// cmd/ssbyz-bench prints the full suite.
//
// The paper is a theory paper: its "tables" are proved numeric bounds (in
// units of d and Φ) and its "figures" are the claimed behavioural shapes
// (message-driven speed, linear early stopping, Δstb convergence). The
// harness measures each on the discrete-event simulator, where rt(·) and
// τ(·) are exact, and reports measured-vs-bound.
package harness

import (
	"fmt"
	"io"
	"sort"
	"time"

	"ssbyz/internal/check"
	"ssbyz/internal/metrics"
	"ssbyz/internal/protocol"
	"ssbyz/internal/sim"
	"ssbyz/internal/simtime"
)

// Options tunes the suite's cost.
type Options struct {
	// Seeds is the number of randomized repetitions per configuration
	// (default 20; the heavier experiments cap it themselves).
	Seeds int
	// Quick shrinks sweeps for unit tests (3 seeds, small n only).
	Quick bool
	// Workers bounds how many simulation cells run concurrently (default
	// runtime.GOMAXPROCS(0)). Output is byte-identical for every value:
	// parallelism only reorders execution, never presentation.
	Workers int

	// pool, when set by RunAll, is the token pool shared by every sweep of
	// every overlapping experiment.
	pool chan struct{}
}

// seeds returns the effective repetition count.
func (o Options) seeds(def int) int {
	if o.Quick {
		return 3
	}
	if o.Seeds > 0 {
		return o.Seeds
	}
	return def
}

// nSweep returns the node-count sweep.
func (o Options) nSweep() []int {
	if o.Quick {
		return []int{4, 7}
	}
	return []int{4, 7, 10, 16, 25, 31}
}

// Result is one experiment's output. It marshals directly into the JSON
// suite artifact (see Suite), so renames here are artifact-schema changes.
type Result struct {
	ID     string           `json:"id"`
	Title  string           `json:"title"`
	Tables []*metrics.Table `json:"tables"`
	// Notes carries shape conclusions ("ours wins by ×12 at δ=d/10").
	Notes []string `json:"notes,omitempty"`
	// Violations counts property violations found during the experiment
	// (must be zero for a faithful reproduction).
	Violations int `json:"violations"`
	// WallMS, PeakAllocMB and CellWallMS are the non-deterministic
	// fields of the JSON suite artifact (they record the perf trajectory
	// across commits) and are deliberately excluded from WriteTo, so the
	// human-readable report stays byte-identical across machines and
	// worker counts.
	//
	// WallMS is the experiment's wall-clock cost in milliseconds, filled
	// by RunAll.
	WallMS float64 `json:"wall_ms,omitempty"`
	// PeakAllocMB is the process heap high-water (MB) sampled while the
	// experiment ran, filled by RunAll. Experiments overlap on a shared
	// worker pool, so read it as "heap pressure while this experiment was
	// in flight", not an isolated footprint.
	PeakAllocMB float64 `json:"peak_alloc_mb,omitempty"`
	// CellWallMS breaks an experiment's cost down by configuration (S1
	// fills it with the mean per-seed wall clock per committee size) —
	// the series the BENCH regression guard compares across commits.
	CellWallMS map[string]float64 `json:"cell_wall_ms,omitempty"`
}

// WriteTo renders the result.
func (r *Result) WriteTo(w io.Writer) (int64, error) {
	var n int64
	write := func(format string, args ...any) error {
		m, err := fmt.Fprintf(w, format, args...)
		n += int64(m)
		return err
	}
	if err := write("## %s — %s\n\n", r.ID, r.Title); err != nil {
		return n, err
	}
	for _, t := range r.Tables {
		if err := write("%s\n", t.String()); err != nil {
			return n, err
		}
	}
	for _, note := range r.Notes {
		if err := write("- %s\n", note); err != nil {
			return n, err
		}
	}
	if err := write("- property violations: %d\n\n", r.Violations); err != nil {
		return n, err
	}
	return n, nil
}

// Experiment couples an identifier with its runner.
type Experiment struct {
	ID    string
	Title string
	// Claim cites the paper property the experiment reproduces.
	Claim string
	Run   func(Options) *Result
}

// All returns the full suite in presentation order.
func All() []Experiment {
	return []Experiment{
		{"E1", "Validity latency under a correct General", "Validity + Timeliness-2: decide within [t0−d, t0+4d]", E1ValidityLatency},
		{"E2", "Decision and anchor skew", "Timeliness-1: skew ≤ 3d (2d under validity), anchors ≤ 6d", E2AgreementSkew},
		{"E3", "Termination bound", "Timeliness-3: return within Δagr (+7d if not invoked)", E3TerminationBound},
		{"E4", "Early stopping in the actual fault count", "O(f′) rounds, f′ ≤ f actual faults", E4EarlyStopping},
		{"E5", "Message-driven vs time-driven rounds", "headline: runtime tracks actual δ, not the worst-case bound", E5MessageDrivenSpeedup},
		{"E6", "Convergence from arbitrary state", "self-stabilization within Δstb = 2Δreset", E6Convergence},
		{"E7", "Agreement under a faulty General", "Agreement: all-or-none, no splits (IA-4)", E7FaultyGeneralAgreement},
		{"E8", "Initiator-Accept bounds", "IA-1A..1D, IA-4 on the primitive in isolation", E8InitiatorAccept},
		{"E9", "msgd-broadcast bounds", "TPS-1/TPS-2: 3d accept skew, unforgeability", E9MsgdBroadcast},
		{"E10", "Message complexity", "O(n²) messages per agreement", E10MessageComplexity},
		{"F1", "Latency vs n (ours vs baseline)", "figure: scalability series", F1LatencyVsN},
		{"F2", "Latency vs actual δ (ours vs baseline)", "figure: the crossover-free domination shape", F2LatencyVsDelta},
		{"F3", "Recovery timeline after a transient fault", "figure: fraction recovered vs time since coherence", F3RecoveryTimeline},
		{"F4", "Pulse synchronization skew", "figure: companion [6] pulse layer atop agreement", F4PulseSkew},
		{"A1", "Block R window ablation", "why the repo uses 5d where Fig. 1 says 4d (DESIGN.md §3)", A1BlockRWindow},
		{"S1", "Scaling: agreement cost vs n", "new workload: the substrate sustains n = 64 committees (DESIGN.md §5)", S1Scaling},
		{"S2", "Randomized adversarial campaign", "new workload: generated adversaries/conditions vs the full battery (DESIGN.md §6)", S2Campaign},
		{"S3", "Service throughput vs session concurrency", "new workload: the replicated-log service scales with footnote-9 concurrent sessions (DESIGN.md §8)", S3Service},
		{"V1", "Deterministic live campaign under virtual time", "the live socket pipeline on an injected fake clock: exact, reproducible ticks (DESIGN.md §9)", V1VirtualLive},
		{"V2", "Deterministic live service under virtual time", "the replicated-log service as a deterministic schedule (DESIGN.md §9)", V2VirtualService},
		{"V3", "Adversarial live campaign under virtual time", "byte-level attacks vs the wire defenses, in-situ transient recovery within Δstb (DESIGN.md §10)", V3AdversarialLive},
		{"V4", "Cluster operations campaign under virtual time", "live membership: scale-up, rolling replacement within Δstb, old-incarnation replay rejection (DESIGN.md §12)", V4OpsCampaign},
	}
}

// RunAll executes the full suite and writes every result to w. Whole
// experiments overlap — each runs in its own goroutine, all drawing cells
// from one Workers-sized pool — but results are written strictly in
// presentation order, so the report is byte-identical for every Workers
// setting.
func RunAll(w io.Writer, opt Options) ([]*Result, error) {
	opt = opt.withSharedPool()
	exps := All()
	results := make([]*Result, len(exps))
	done := make([]chan struct{}, len(exps))
	sampler := newPeakSampler()
	defer sampler.stop()
	for i := range exps {
		i := i
		done[i] = make(chan struct{})
		go func() {
			defer close(done[i])
			start := time.Now()
			win := sampler.open()
			results[i] = exps[i].Run(opt)
			// Experiments overlap on a shared pool, so this includes time
			// spent waiting for workers — read it as "cost within a full
			// suite run", not an isolated measurement.
			results[i].WallMS = float64(time.Since(start).Microseconds()) / 1000
			results[i].PeakAllocMB = sampler.close(win)
		}()
	}
	var out []*Result
	for i := range exps {
		<-done[i]
		out = append(out, results[i])
		if _, err := results[i].WriteTo(w); err != nil {
			// Drain the stragglers so no goroutine outlives the call.
			for _, ch := range done[i+1:] {
				<-ch
			}
			return out, err
		}
	}
	return out, nil
}

// Suite is the machine-readable form of a full run, shaped for the
// BENCH_*.json perf-trajectory artifacts: the resolved options, every
// result (tables as header/row string grids), and the violation total.
type Suite struct {
	Quick      bool      `json:"quick"`
	Seeds      int       `json:"seeds,omitempty"`
	Workers    int       `json:"workers"`
	Violations int       `json:"violations"`
	Results    []*Result `json:"results"`
}

// NewSuite packages finished results with the options that produced them.
func NewSuite(opt Options, results []*Result) *Suite {
	s := &Suite{
		Quick:   opt.Quick,
		Seeds:   opt.Seeds,
		Workers: opt.workers(),
		Results: results,
	}
	for _, r := range results {
		s.Violations += r.Violations
	}
	return s
}

// ---- shared helpers ----

// dF converts ticks to multiples of d for presentation.
func dF(ticks float64, pp protocol.Params) float64 { return ticks / float64(pp.D) }

// correctGeneralScenario builds the canonical fault-free scenario: General
// 0 initiates "v" at t0 = 2d.
func correctGeneralScenario(n int, seed int64, delayMin, delayMax simtime.Duration) (sim.Scenario, simtime.Real) {
	pp := protocol.DefaultParams(n)
	t0 := simtime.Real(2 * pp.D)
	sc := sim.Scenario{
		Params:      pp,
		Seed:        seed,
		DelayMin:    delayMin,
		DelayMax:    delayMax,
		Initiations: []sim.Initiation{{At: t0, G: 0, Value: "v"}},
		RunFor:      simtime.Duration(t0) + 3*pp.DeltaAgr(),
	}
	return sc, t0
}

// decisionLatencies returns rt(decision) − t0 per correct decider, the
// max, and whether all correct nodes decided.
func decisionLatencies(res *sim.Result, g protocol.NodeID, t0 simtime.Real) (lats []float64, maxLat float64, all bool) {
	decs := res.Decisions(g)
	decided := 0
	for _, d := range decs {
		if !d.Decided {
			continue
		}
		decided++
		lat := float64(d.RT - t0)
		lats = append(lats, lat)
		if lat > maxLat {
			maxLat = lat
		}
	}
	return lats, maxLat, decided == len(res.Correct)
}

// pairwiseSkew returns the maximal pairwise gap of the given instants.
func pairwiseSkew(ts []simtime.Real) simtime.Duration {
	if len(ts) == 0 {
		return 0
	}
	lo, hi := ts[0], ts[0]
	for _, t := range ts {
		if t < lo {
			lo = t
		}
		if t > hi {
			hi = t
		}
	}
	return simtime.Duration(hi - lo)
}

// decideTimes extracts decision/anchor instants of correct deciders.
func decideTimes(res *sim.Result, g protocol.NodeID) (rts, anchors []simtime.Real) {
	for _, d := range res.Decisions(g) {
		if d.Decided {
			rts = append(rts, d.RT)
			anchors = append(anchors, d.RTauG)
		}
	}
	return rts, anchors
}

// countViolations tallies check results, appending details to notes when
// verbose diagnosis is useful.
func countViolations(vs ...[]check.Violation) int {
	n := 0
	for _, v := range vs {
		n += len(v)
	}
	return n
}

// sortedKeys returns the sorted keys of an int-keyed map (table ordering).
func sortedKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
