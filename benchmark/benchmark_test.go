package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"ssbyz/internal/core"
	"ssbyz/internal/protocol"
	"ssbyz/internal/sim"
	"ssbyz/internal/simtime"
)

func readSpec(t *testing.T) contractSpec {
	t.Helper()
	var spec contractSpec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func names(ms []specMetric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs all five workloads at toy size, untraced and traced, and
// holds every name and unit emitted to BENCHMARK.json.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	var specWorkloads, ours []string
	for _, w := range spec.Workloads {
		specWorkloads = append(specWorkloads, w.Name)
	}
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(specWorkloads, ours) {
		t.Fatalf("workloads: BENCHMARK.json has %v, the benchmark runs %v", specWorkloads, ours)
	}
	units := map[string]string{}
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !validName(m.Name) {
			t.Errorf("metric name %q breaks the naming rule", m.Name)
		}
		units[m.Name] = m.Unit
	}
	for i := range workloads {
		w := &workloads[i]
		if !validName(w.name) {
			t.Errorf("workload name %q breaks the naming rule", w.name)
		}
		for _, traced := range []bool{false, true} {
			want, budget := names(spec.EndToEnd), 100*time.Millisecond
			if traced {
				want, budget = names(spec.PerLayer), 300*time.Millisecond
			}
			res, err := runWorkload(w, 1, budget, traced, toy)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s traced=%v: attempted %d, failed %d: %v", w.name, traced, res.Attempted, res.Failed, res.Violations)
			}
			var got []string
			for name, v := range res.Metrics {
				got = append(got, name)
				if v.Unit != units[name] {
					t.Errorf("%s %s: unit %q, BENCHMARK.json says %q", w.name, name, v.Unit, units[name])
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s %s = %v", w.name, name, v.Value)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s %s = %v: an end-to-end metric is never 0", w.name, name, v.Value)
				}
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v emits %v\nBENCHMARK.json lists %v", w.name, traced, got, want)
			}
		}
	}
}

// TestWrongOutputFailsCommand demands one decider more than there are
// nodes, on the simulator and on sockets: the workload must count failed
// ops and the command must exit non-zero, still printing its result line.
func TestWrongOutputFailsCommand(t *testing.T) {
	broken := toy
	broken.extraDeciders = 1
	for _, name := range []string{"sim-scale", "live-agree"} {
		w := workloadByName(name)
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", w.name, "--seed", "1", "--seconds", "0.1", "--trace", "0"}, broken, &stdout, &stderr)
		if code == 0 {
			t.Errorf("%s: exit code 0 with a check no run can pass", w.name)
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var last struct {
			Correct   bool
			Attempted int
			Failed    int
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("%s: last line is not the result: %v", w.name, err)
		}
		if last.Correct || last.Failed == 0 || last.Failed > last.Attempted {
			t.Errorf("%s: result %+v, want correct=false and 0 < failed ≤ attempted", w.name, last)
		}
		if !strings.Contains(stdout.String(), "WRONG OUTPUT") {
			t.Errorf("%s: no violation printed", w.name)
		}
	}
}

// TestDecoratorsForward runs one simulated agreement with and without the
// node/runtime decorators: initiation, timers and traces must pass through
// unchanged, so the two traces are identical event for event.
func TestDecoratorsForward(t *testing.T) {
	pp := protocol.DefaultParams(7)
	scenario := func(newNode func() protocol.Node) sim.Scenario {
		return sim.Scenario{Params: pp, Seed: 42, NewNode: newNode,
			Initiations: []sim.Initiation{{At: simtime.Real(2 * pp.D), G: 3, Value: "v"}}}
	}
	plain, err := sim.Run(scenario(nil))
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(pp.N, false)
	traced, err := sim.Run(scenario(tr.wrap(func() protocol.Node { return core.NewNode() })))
	if err != nil {
		t.Fatal(err)
	}
	if len(traced.InitErrs) != 0 {
		t.Fatalf("decorated General refused to initiate: %v", traced.InitErrs)
	}
	if got := deciders(traced, 3, "v"); got != pp.N {
		t.Fatalf("%d of %d decorated nodes decided", got, pp.N)
	}
	if !reflect.DeepEqual(plain.Rec.Events(), traced.Rec.Events()) {
		t.Error("trace differs with the decorators in place")
	}
	pm, _ := plain.World.MessageCount()
	tm, _ := traced.World.MessageCount()
	if pm != tm || plain.World.Scheduler().Processed() != traced.World.Scheduler().Processed() {
		t.Errorf("messages %d vs %d, events %d vs %d", pm, tm,
			plain.World.Scheduler().Processed(), traced.World.Scheduler().Processed())
	}
	sp := tr.total()
	var handled int64
	for _, s := range sp.self {
		handled += s.count
		if s.ns < 0 {
			t.Errorf("negative self time %d", s.ns)
		}
	}
	if handled == 0 || sp.send.units != tm || sp.timer.count == 0 || int(sp.trace.count) != traced.Rec.Len() {
		t.Errorf("spans: %d handlers, %d of %d sends, %d timer ops, %d of %d trace events",
			handled, sp.send.units, tm, sp.timer.count, sp.trace.count, traced.Rec.Len())
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rows ...summaryRow) string {
		path := filepath.Join(dir, name)
		rep := report{Summary: rows}
		if err := rep.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(spec, []byte(`{"workloads":[{"name":"w"}],"end_to_end":[
		{"name":"lat","unit":"ms","better":"lower","bound":0.1},
		{"name":"rate","unit":"1/s","better":"higher","bound":0.1},
		{"name":"noisy","unit":"ms","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	row := func(metric string, med, q1, q3 float64) summaryRow {
		return summaryRow{Workload: "w", Metric: metric, spread: spread{N: 10, Median: med, Q1: q1, Q3: q3}}
	}
	a := write("a.json", row("lat", 10, 9.9, 10.1), row("rate", 100, 99, 101), row("noisy", 10, 9, 11))
	b := write("b.json", row("lat", 12, 11.9, 12.1), row("rate", 95, 94, 96), row("noisy", 10, 9.9, 10.1))
	var stdout, stderr bytes.Buffer
	if code := compareReports(&stdout, &stderr, spec, a, b); code != 1 {
		t.Errorf("exit code %d, want 1: lat regressed by 20%%", code)
	}
	for metric, verdict := range map[string]string{"lat": "REGRESSION", "rate": "ok", "noisy": "unresolved"} {
		found := false
		for _, line := range strings.Split(stdout.String(), "\n") {
			if f := strings.Fields(line); len(f) > 2 && f[1] == metric {
				found = f[len(f)-1] == verdict
			}
		}
		if !found {
			t.Errorf("%s: want verdict %s in\n%s", metric, verdict, stdout.String())
		}
	}
	stdout.Reset()
	if code := compareReports(&stdout, &stderr, spec, b, b); code != 0 {
		t.Errorf("b against itself: exit code %d\n%s", code, stdout.String())
	}
}

func TestPkgOf(t *testing.T) {
	for fn, want := range map[string]string{
		"ssbyz/internal/msglog.(*Log).record":                     "msglog",
		"ssbyz/internal/simnet.(*World).broadcastFrom":            "simnet",
		"runtime.mallocgc":                                        "runtime",
		"internal/runtime/atomic.(*Uint32).Load":                  "runtime",
		"runtime/internal/syscall.Syscall6":                       "runtime",
		"slices.SortFunc[go.shape.[]ssbyz/internal/sim.Decision]": "slices",
		"syscall.Syscall6":                                        "syscall",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestTickQuantile(t *testing.T) {
	// 100 readings of tick 4 and 100 of tick 5: the median sits on the
	// boundary, the first quartile halfway through tick 4.
	var ticks []float64
	for i := 0; i < 100; i++ {
		ticks = append(ticks, 4, 5)
	}
	if got := tickQuantile(ticks, 0.25); math.Abs(got-4.5) > 0.01 {
		t.Errorf("q1 = %v, want 4.5", got)
	}
	if got := tickQuantile(ticks, 0.5); math.Abs(got-5) > 0.02 {
		t.Errorf("median = %v, want 5", got)
	}
	if got := tickQuantile(ticks, 0.9); got < 5 || got > 6 {
		t.Errorf("p90 = %v, want within tick 5", got)
	}
}

// validName is the contract's rule for workload and metric names.
func validName(s string) bool {
	if s == "" || len(s) > 64 || strings.ContainsAny(s[:1], "_.-") {
		return false
	}
	for _, c := range s {
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '.' || c == '-') {
			return false
		}
	}
	return true
}
