package harness

import (
	"bytes"
	"strings"
	"testing"

	"ssbyz/internal/protocol"
	"ssbyz/internal/simtime"
)

// TestSuiteQuick requires zero property violations and non-empty tables
// from every experiment of the shared quick-suite render — the
// reproduction's end-to-end smoke test.
func TestSuiteQuick(t *testing.T) {
	suite := sharedQuickSuite(t)
	for i, ex := range All() {
		if i >= len(suite.results) {
			t.Fatalf("RunAll returned %d results, want %d", len(suite.results), len(All()))
		}
		res := suite.results[i]
		t.Run(ex.ID, func(t *testing.T) {
			if res.ID != ex.ID {
				t.Fatalf("result %d is %s, want %s", i, res.ID, ex.ID)
			}
			if res.Violations != 0 {
				var buf bytes.Buffer
				_, _ = res.WriteTo(&buf)
				t.Errorf("%s: %d property violations\n%s", ex.ID, res.Violations, buf.String())
			}
			if len(res.Tables) == 0 {
				t.Errorf("%s produced no tables", ex.ID)
			}
			for _, tab := range res.Tables {
				if len(tab.Rows) == 0 {
					t.Errorf("%s produced an empty table %q", ex.ID, tab.Title)
				}
			}
		})
	}
}

// TestRunAllWritesEveryExperiment requires the shared render to hold one
// result and one "## ID" section per experiment.
func TestRunAllWritesEveryExperiment(t *testing.T) {
	suite := sharedQuickSuite(t)
	if len(suite.results) != len(All()) {
		t.Fatalf("RunAll returned %d results, want %d", len(suite.results), len(All()))
	}
	out := string(suite.out)
	for _, ex := range All() {
		if !strings.Contains(out, "## "+ex.ID+" ") {
			t.Errorf("output missing section for %s", ex.ID)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	cases := []struct {
		name string
		opt  Options
		def  int
		want int
	}{
		{"quick overrides", Options{Quick: true, Seeds: 50}, 20, 3},
		{"explicit seeds", Options{Seeds: 7}, 20, 7},
		{"default", Options{}, 20, 20},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.opt.seeds(tc.def); got != tc.want {
				t.Errorf("seeds(%d) = %d, want %d", tc.def, got, tc.want)
			}
		})
	}
	if got := (Options{Quick: true}).nSweep(); len(got) != 2 {
		t.Errorf("quick nSweep = %v, want 2 entries", got)
	}
	if got := (Options{}).nSweep(); len(got) != 6 {
		t.Errorf("full nSweep = %v, want 6 entries", got)
	}
}

func TestPairwiseSkew(t *testing.T) {
	cases := []struct {
		name string
		in   []simtime.Real
		want simtime.Duration
	}{
		{"empty", nil, 0},
		{"single", []simtime.Real{5}, 0},
		{"spread", []simtime.Real{3, 9, 5}, 6},
		{"equal", []simtime.Real{4, 4, 4}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := pairwiseSkew(tc.in); got != tc.want {
				t.Errorf("pairwiseSkew(%v) = %d, want %d", tc.in, got, tc.want)
			}
		})
	}
}

func TestDF(t *testing.T) {
	pp := protocol.Params{N: 4, F: 1, D: 1000}
	if got := dF(4200, pp); got != 4.2 {
		t.Errorf("dF(4200) = %v, want 4.2", got)
	}
}
