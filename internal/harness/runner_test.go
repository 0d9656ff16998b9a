package harness

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSweepOrderPreserved floods the pool with more cells than workers and
// checks the grid comes back indexed by (config, seed), not by completion
// order.
func TestSweepOrderPreserved(t *testing.T) {
	configs := []int{10, 20, 30}
	const seeds = 17
	grid := sweep(Options{Workers: 8}, configs, seeds, func(cfg, seed int) int {
		return cfg*1000 + seed
	})
	if len(grid) != len(configs) {
		t.Fatalf("got %d config rows, want %d", len(grid), len(configs))
	}
	for ci, cfg := range configs {
		if len(grid[ci]) != seeds {
			t.Fatalf("config %d: got %d cells, want %d", cfg, len(grid[ci]), seeds)
		}
		for s, got := range grid[ci] {
			if want := cfg*1000 + s; got != want {
				t.Errorf("grid[%d][%d] = %d, want %d", ci, s, got, want)
			}
		}
	}
}

// TestSweepBoundsConcurrency checks that no more than Workers cells are
// ever in flight at once.
func TestSweepBoundsConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int64
	sweepSeeds(Options{Workers: workers}, 64, func(seed int) struct{} {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		for i := 0; i < 1000; i++ {
			runtime.Gosched()
		}
		inFlight.Add(-1)
		return struct{}{}
	})
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds Workers=%d", p, workers)
	}
}

// TestSweepSharedPool checks that experiments handed a shared pool draw
// their cells from it rather than minting a fresh one per sweep.
func TestSweepSharedPool(t *testing.T) {
	opt := Options{Workers: 2}.withSharedPool()
	if opt.pool == nil {
		t.Fatal("withSharedPool did not install a pool")
	}
	if got := cap(opt.pool); got != 2 {
		t.Fatalf("shared pool capacity = %d, want 2", got)
	}
	if opt.limiter() != opt.pool {
		t.Error("limiter() ignored the shared pool")
	}
	again := opt.withSharedPool()
	if again.pool != opt.pool {
		t.Error("withSharedPool replaced an existing pool")
	}
}

func TestWorkersDefaults(t *testing.T) {
	if got := (Options{}).workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("default workers = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	if got := (Options{Workers: 5}).workers(); got != 5 {
		t.Errorf("explicit workers = %d, want 5", got)
	}
}

// TestSweepEmpty covers the zero-cell edge cases.
func TestSweepEmpty(t *testing.T) {
	if grid := sweep(Options{}, nil, 3, func(cfg, seed int) int { return 0 }); len(grid) != 0 {
		t.Errorf("empty configs: got %d rows", len(grid))
	}
	grid := sweep(Options{}, []int{1}, 0, func(cfg, seed int) int { return 0 })
	if len(grid) != 1 || len(grid[0]) != 0 {
		t.Errorf("zero seeds: got %v", grid)
	}
}

// quickRenders holds the package's Workers=1 renders of the quick suite,
// one per GOMAXPROCS value. TestSuiteQuick,
// TestRunAllWritesEveryExperiment and TestRunAllDeterministicAcrossWorkers
// all read it, so `go test` renders the whole suite twice (Workers 1 and
// 8) instead of once per test, while each `-cpu` value still renders
// Workers=1 under its own GOMAXPROCS (the live cells' goroutines under
// -race).
var (
	quickMu      sync.Mutex
	quickRenders = map[int]quickRender{}
)

type quickRender struct {
	results []*Result
	out     []byte
}

// sharedQuickSuite returns the render for the current GOMAXPROCS,
// rendering it on first use and failing t if that errors. It skips t in
// -short: the render is seconds-long.
func sharedQuickSuite(t *testing.T) quickRender {
	t.Helper()
	if testing.Short() {
		t.Skip("renders the quick suite; skipped in -short")
	}
	quickMu.Lock()
	defer quickMu.Unlock()
	procs := runtime.GOMAXPROCS(0)
	if r, ok := quickRenders[procs]; ok {
		return r
	}
	var buf bytes.Buffer
	results, err := RunAll(&buf, Options{Quick: true, Workers: 1})
	if err != nil {
		t.Fatalf("RunAll(Workers=1): %v", err)
	}
	r := quickRender{results: results, out: buf.Bytes()}
	quickRenders[procs] = r
	return r
}

// TestRunAllDeterministicAcrossWorkers is the suite-level determinism
// gate: the full quick-mode report must be byte-identical whether cells
// run one at a time (the shared render) or fanned across eight workers.
// Run under -race this also exercises the pool for data races.
func TestRunAllDeterministicAcrossWorkers(t *testing.T) {
	seq := sharedQuickSuite(t)
	var par bytes.Buffer
	if _, err := RunAll(&par, Options{Quick: true, Workers: 8}); err != nil {
		t.Fatalf("RunAll(Workers=8): %v", err)
	}
	if !bytes.Equal(seq.out, par.Bytes()) {
		t.Errorf("suite output differs between Workers=1 (%d bytes) and Workers=8 (%d bytes)",
			len(seq.out), par.Len())
	}
}

// TestNewSuiteTotalsViolations checks the JSON artifact aggregates.
func TestNewSuiteTotalsViolations(t *testing.T) {
	s := NewSuite(Options{Quick: true, Workers: 4}, []*Result{
		{ID: "X1", Violations: 2},
		{ID: "X2", Violations: 3},
	})
	if s.Violations != 5 {
		t.Errorf("suite violations = %d, want 5", s.Violations)
	}
	if !s.Quick || s.Workers != 4 {
		t.Errorf("suite options not carried: %+v", s)
	}
	if len(s.Results) != 2 {
		t.Errorf("suite kept %d results, want 2", len(s.Results))
	}
}
