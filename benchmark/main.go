// Command benchmark measures ss-Byz-Agree on its three runtimes: five named
// workloads, five end-to-end metrics each, and sixty per-layer metrics from
// a separate traced run. See README.md in this directory.
//
//	bash benchmark/run.sh --workload <name|all> --seed <n> [--seconds s] [--trace 0|1] [--runs k] [--out f.json]
//	bash benchmark/run.sh --compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], full, os.Stdout, os.Stderr))
}

// run is the whole command; sz is full except in the smoke test.
func run(args []string, sz sizes, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "seed of every generated input (1 = development, 2 = hold-out)")
	seconds := fs.Float64("seconds", 20, "measuring window per run")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	runs := fs.Int("runs", 1, "repetitions per workload; the report gives median and quartiles over them")
	out := fs.String("out", "", "also write the report as JSON to this file")
	compare := fs.Bool("compare", false, "compare two -out files against the bounds in -spec")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark contract read by -compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: --compare a.json b.json")
			return 2
		}
		return compareReports(stdout, stderr, *spec, fs.Arg(0), fs.Arg(1))
	}
	var todo []*workload
	if *name == "all" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else if w := workloadByName(*name); w != nil {
		todo = []*workload{w}
	} else {
		fmt.Fprintf(stderr, "unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || *runs < 1 || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "need --seconds > 0, --runs ≥ 1 and no stray arguments")
		return 2
	}

	rep := report{Machine: readMachine()}
	budget := time.Duration(*seconds * float64(time.Second))
	for _, w := range todo {
		for r := 0; r < *runs; r++ {
			res, err := runWorkload(w, *seed, budget, *trace != 0, sz)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			rep.Runs = append(rep.Runs, res)
		}
	}
	rep.summarise()
	rep.print(stdout)
	if *out != "" {
		if err := rep.write(*out); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	code := 0
	for _, r := range rep.Runs {
		if !r.Correct {
			code = 1
		}
	}
	if len(rep.Runs) == 1 {
		// The last line of a single run is the machine-readable result.
		line, err := json.Marshal(rep.Runs[0].contract())
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return code
}

// value is one metric of one run.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload.
type result struct {
	Workload   string           `json:"workload"`
	Seed       int64            `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Traced     bool             `json:"traced"`
	Correct    bool             `json:"correct"`
	Attempted  int              `json:"ops_attempted"`
	Failed     int              `json:"ops_failed"`
	Tolerated  int              `json:"known_findings"`
	Samples    int              `json:"latency_samples"`
	Violations []string         `json:"violations,omitempty"`
	Metrics    map[string]value `json:"metrics"`
}

// contract is the shape of the last output line of a single run.
func (r result) contract() any {
	return struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics}
}

// runWorkload makes one run. Untraced, it is one measuring phase and the
// end-to-end metrics. Traced, the window is split: a third untraced (the
// base the tracing overhead is read against), a third with the decorators
// in place under the CPU profiler, then the leaf drivers.
func runWorkload(w *workload, seed int64, budget time.Duration, traced bool, sz sizes) (result, error) {
	res := result{Workload: w.name, Seed: seed, Seconds: budget.Seconds(), Traced: traced,
		Metrics: map[string]value{}}
	phases := []*measured{}
	if !traced {
		m := w.run(env{seed: seed, budget: budget, sz: sz})
		phases = append(phases, m)
		for name, v := range endToEndValues(m) {
			res.Metrics[name] = value{v, unitOf(endToEnd, name)}
		}
		res.Samples = len(m.opMs)
	} else {
		sz.setupReps = 1
		base := w.run(env{seed: seed, budget: budget / 3, sz: sz})
		var tr *measured
		shares, err := profileCPU(func() {
			tr = w.run(env{seed: seed, budget: budget / 3, sz: sz, traced: true})
		})
		if err != nil {
			return res, err
		}
		phases = append(phases, base, tr)
		for name, v := range perLayerValues(w, base, tr, leafMetrics(sz.leafScale), shares) {
			res.Metrics[name] = value{v, unitOf(perLayer, name)}
		}
		res.Samples = len(tr.opMs)
	}
	for _, m := range phases {
		res.Attempted += m.attempted
		res.Failed += m.failed
		res.Tolerated += m.tolerated
		for _, v := range m.violations {
			if len(res.Violations) < 3 {
				res.Violations = append(res.Violations, v)
			}
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// opQuantile is the q-quantile of a phase's op latencies, in ms.
func opQuantile(m *measured, q float64) float64 {
	if m.opTickMs > 0 {
		return tickQuantile(m.opMs, q) * m.opTickMs
	}
	return quantile(sortedCopy(m.opMs), q)
}

func endToEndValues(m *measured) map[string]float64 {
	return map[string]float64{
		"op_ms_p50":  opQuantile(m, 0.5),
		"op_ms_p90":  opQuantile(m, 0.9),
		"ops_per_s":  m.opsPerS,
		"msgs_per_s": m.msgsPerS,
		"setup_s":    median(m.setupS),
	}
}

// perLayerValues assembles every per-layer metric of a traced run. A
// layer the workload never enters reports 0.
func perLayerValues(w *workload, base, tr *measured, leaves, shares map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, d := range perLayer {
		out[d.name] = 0
	}
	put := func(name string, v float64) {
		if _, known := out[name]; !known {
			panic("benchmark: metric " + name + " is not in the catalogue")
		}
		out[name] = v
	}
	per := func(s span) float64 { return ratio(float64(s.ns), float64(s.count)) }

	sp := tr.sp
	put("initaccept.handler_ns_per_msg", per(sp.self[hInitAccept]))
	put("broadcast.handler_ns_per_msg", per(sp.self[hBroadcast]))
	put("core.timer_ns_per_fire", per(sp.self[hTimer]))
	var calls int64
	for _, s := range sp.self {
		calls += s.count
	}
	put("core.handler_calls", ratio(float64(calls), tr.ops))
	sendNs := ratio(float64(sp.send.ns), float64(sp.send.units))
	if w.sim {
		put("simnet.send_ns_per_msg", sendNs)
		put("simnet.timer_ns_per_op", per(sp.timer))
	} else {
		put("nettrans.send_ns_per_msg", sendNs)
	}
	put("protocol.trace_ns_per_event", per(sp.trace))
	transit := make([]float64, len(sp.transit))
	for i, ns := range sp.transit {
		transit[i] = float64(ns) / 1e3
	}
	sort.Float64s(transit)
	put("nettrans.transit_us_p50", quantile(transit, 0.5))
	put("nettrans.transit_us_p90", quantile(transit, 0.9))

	for _, name := range []string{"scenario.generate", "scenario.build", "sim.run", "check.battery",
		"check.live_battery", "service.battery", "nettrans.boot", "nettrans.stop"} {
		put(name+"_ms", tr.calls.meanMs(name))
	}
	for name, v := range tr.layer {
		put(name, v)
	}
	put("nettrans.frames_per_agreement", ratio(tr.net.received, tr.ops))
	put("nettrans.frames_per_batch", ratio(tr.net.batchedFrames, tr.net.batches))
	put("nettrans.delivered_ratio", ratio(tr.net.received, tr.net.sent))
	for name, v := range leaves {
		put(name, v)
	}
	put("proc.cpu_ms_per_op", ratio(tr.proc.cpuMs, tr.ops))
	put("proc.alloc_bytes_per_op", ratio(tr.proc.allocBytes, tr.ops))
	put("proc.peak_heap_mb", tr.proc.peakHeapMB)
	put("proc.gc_pause_ms", tr.proc.gcPauseMs)
	for pkg, share := range shares {
		put("proc.cpu_share."+pkg, share)
	}
	// Tails and the tracing overhead are read off the untraced third.
	if w.p99 != "" {
		put(w.p99, opQuantile(base, 0.99))
	}
	if w.dMs > 0 {
		put("decide_frac_d_p50", opQuantile(base, 0.5)/w.dMs)
	}
	put("trace.overhead_frac", ratio(opQuantile(tr, 0.5), opQuantile(base, 0.5))-1)
	return out
}

// report is what -out writes and -compare reads.
type report struct {
	Machine machine  `json:"machine"`
	Runs    []result `json:"runs"`
	// Summary has one row per (workload, traced, metric): the spread of
	// the metric over the runs.
	Summary []summaryRow `json:"summary"`
}

type summaryRow struct {
	Workload string `json:"workload"`
	Traced   bool   `json:"traced"`
	Metric   string `json:"metric"`
	Unit     string `json:"unit"`
	spread
}

func (rep *report) summarise() {
	type key struct {
		w      string
		traced bool
		metric string
	}
	vals := map[key][]float64{}
	units := map[string]string{}
	var order []key
	for _, r := range rep.Runs {
		names := make([]string, 0, len(r.Metrics))
		for name := range r.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			k := key{r.Workload, r.Traced, name}
			if _, seen := vals[k]; !seen {
				order = append(order, k)
			}
			vals[k] = append(vals[k], r.Metrics[name].Value)
			units[name] = r.Metrics[name].Unit
		}
	}
	rep.Summary = rep.Summary[:0]
	for _, k := range order {
		rep.Summary = append(rep.Summary, summaryRow{k.w, k.traced, k.metric, units[k.metric], spreadOf(vals[k])})
	}
}

func (rep *report) print(w io.Writer) {
	m := rep.Machine
	fmt.Fprintf(w, "machine: %s, GOMAXPROCS=%d, nproc=%d, %s, commit %s\n",
		m.GoVersion, m.GOMAXPROCS, m.NumCPU, m.CPUModel, m.Commit)
	for _, r := range rep.Runs {
		fmt.Fprintf(w, "run: %s seed=%d seconds=%g traced=%v ops_attempted=%d ops_failed=%d latency_samples=%d known_findings=%d\n",
			r.Workload, r.Seed, r.Seconds, r.Traced, r.Attempted, r.Failed, r.Samples, r.Tolerated)
		for _, v := range r.Violations {
			fmt.Fprintf(w, "  WRONG OUTPUT: %s\n", v)
		}
	}
	last := ""
	for _, s := range rep.Summary {
		if s.Workload != last {
			fmt.Fprintf(w, "%s\n  %-34s %-6s %4s %14s %14s %14s\n", s.Workload, "metric", "unit", "runs", "median", "q1", "q3")
			last = s.Workload
		}
		fmt.Fprintf(w, "  %-34s %-6s %4d %14.6g %14.6g %14.6g\n", s.Metric, s.Unit, s.N, s.Median, s.Q1, s.Q3)
	}
}

func (rep *report) write(path string) error {
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// contractSpec is the part of BENCHMARK.json that -compare and the smoke
// test read.
type contractSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []specMetric            `json:"end_to_end"`
	PerLayer  []specMetric            `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, into any) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(blob, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareReports prints, per (end-to-end metric, workload), how far b's
// median is from a's against the metric's bound. A pair whose own
// run-to-run spread exceeds the bound on either side is unresolved, not
// unchanged. The exit code is 1 unless every pair is ok.
func compareReports(stdout, stderr io.Writer, specPath, pathA, pathB string) int {
	var spec contractSpec
	var a, b report
	if err := errors.Join(readJSON(specPath, &spec), readJSON(pathA, &a), readJSON(pathB, &b)); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	find := func(rep *report, w, metric string) (spread, bool) {
		for _, s := range rep.Summary {
			if s.Workload == w && s.Metric == metric && !s.Traced {
				return s.spread, true
			}
		}
		return spread{}, false
	}
	fmt.Fprintf(stdout, "%-13s %-11s %13s %13s %8s %6s %8s %8s  %s\n",
		"workload", "metric", "a median", "b median", "worse", "bound", "a iqr", "b iqr", "verdict")
	code, pairs := 0, 0
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			sa, okA := find(&a, w.Name, m.Name)
			sb, okB := find(&b, w.Name, m.Name)
			if !okA || !okB {
				continue
			}
			pairs++
			worse := ratio(sb.Median-sa.Median, sa.Median)
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case m.Name != "setup_s" && (sa.iqrShare() > m.Bound || sb.iqrShare() > m.Bound):
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "REGRESSION"
			}
			if verdict != "ok" {
				code = 1
			}
			fmt.Fprintf(stdout, "%-13s %-11s %13.6g %13.6g %+7.1f%% %5.0f%% %7.1f%% %7.1f%%  %s\n",
				w.Name, m.Name, sa.Median, sb.Median, 100*worse, 100*m.Bound,
				100*sa.iqrShare(), 100*sb.iqrShare(), verdict)
		}
	}
	if pairs == 0 {
		fmt.Fprintln(stderr, "no (metric, workload) pair is in both reports")
		return 2
	}
	return code
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("benchmark: metric " + name + " is not in the catalogue")
}

type metricDef struct{ name, unit string }

// endToEnd and perLayer are the catalogue BENCHMARK.json lists; the smoke
// test holds the two to each other.
var endToEnd = []metricDef{
	{"op_ms_p50", "ms"}, {"op_ms_p90", "ms"}, {"ops_per_s", "1/s"}, {"msgs_per_s", "1/s"}, {"setup_s", "s"},
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"initaccept.handler_ns_per_msg", "ns"}, {"broadcast.handler_ns_per_msg", "ns"},
		{"core.timer_ns_per_fire", "ns"}, {"core.handler_calls", "count"},
		{"simnet.send_ns_per_msg", "ns"}, {"simnet.timer_ns_per_op", "ns"},
		{"protocol.trace_ns_per_event", "ns"}, {"nettrans.send_ns_per_msg", "ns"},
		{"simtime.dispatch_ns_per_event", "ns"},
		{"nettrans.transit_us_p50", "us"}, {"nettrans.transit_us_p90", "us"},
		{"scenario.generate_ms", "ms"}, {"scenario.build_ms", "ms"}, {"sim.run_ms", "ms"},
		{"check.battery_ms", "ms"}, {"check.live_battery_ms", "ms"}, {"service.battery_ms", "ms"},
		{"nettrans.boot_ms", "ms"}, {"nettrans.stop_ms", "ms"},
		{"service.admit_wait_ms_p50", "ms"}, {"service.agreement_ms_p50", "ms"},
		{"service.dropped", "count"}, {"service.failed", "count"},
		{"sim.msgs_per_agreement", "count"}, {"sim.events_per_agreement", "count"},
		{"nettrans.frames_per_agreement", "count"}, {"nettrans.frames_per_batch", "count"},
		{"nettrans.late_drops", "count"}, {"nettrans.dedup_drops", "count"},
		{"nettrans.auth_drops", "count"}, {"nettrans.epoch_drops", "count"},
		{"nettrans.delivered_ratio", "ratio"},
		{"msglog.record_ns", "ns"}, {"msglog.count_within_ns", "ns"}, {"msglog.kth_newest_ns", "ns"},
		{"simtime.post_pop_ns", "ns"},
		{"wire.encode_ns_per_frame", "ns"}, {"wire.decode_ns_per_frame", "ns"}, {"wire.batch_read_ns_per_frame", "ns"},
		{"eventloop.mailbox_ns_per_op", "ns"}, {"protocol.recorder_add_ns", "ns"},
		{"proc.cpu_ms_per_op", "ms"}, {"proc.alloc_bytes_per_op", "B"},
		{"proc.peak_heap_mb", "MB"}, {"proc.gc_pause_ms", "ms"},
	}
	for _, pkg := range cpuSharePkgs {
		defs = append(defs, metricDef{"proc.cpu_share." + pkg, "ratio"})
	}
	return append(defs,
		metricDef{"decide_ms_p99", "ms"}, metricDef{"commit_ms_p99", "ms"}, metricDef{"scenario_ms_p99", "ms"},
		metricDef{"decide_frac_d_p50", "ratio"}, metricDef{"trace.overhead_frac", "ratio"})
}()
