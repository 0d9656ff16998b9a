package harness

import (
	"bytes"
	"strings"
	"testing"
)

// renderVirtual runs the deterministic live campaign (V1), service (V2),
// adversarial campaign (V3), and ops campaign (V4) and renders the
// reports.
func renderVirtual(t *testing.T, workers int) []byte {
	t.Helper()
	var buf bytes.Buffer
	opt := Options{Quick: true, Workers: workers}
	for _, run := range []func(Options) *Result{V1VirtualLive, V2VirtualService, V3AdversarialLive, V4OpsCampaign} {
		r := run(opt)
		if r.Violations != 0 {
			t.Fatalf("%s: %d violations: %v", r.ID, r.Violations, r.Notes)
		}
		if _, err := r.WriteTo(&buf); err != nil {
			t.Fatalf("%s: render: %v", r.ID, err)
		}
	}
	return buf.Bytes()
}

// TestVirtualCampaignDeterministic is the acceptance gate of the
// virtual-time runtimes: the V1 sweep (n ∈ {4,7,16}, TCP baseline, chaos
// replay) and the V2 service burst must produce byte-identical reports
// across two runs AND across worker counts — live-pipeline numbers with
// simulator-grade reproducibility, in the default `go test ./...`.
// (TestRunAllDeterministicAcrossWorkers re-checks the same inside the
// full suite.)
func TestVirtualCampaignDeterministic(t *testing.T) {
	seq := renderVirtual(t, 1)
	seqAgain := renderVirtual(t, 1)
	par := renderVirtual(t, 8)
	if !bytes.Equal(seq, seqAgain) {
		t.Errorf("virtual campaign differs across two sequential runs (%d vs %d bytes)",
			len(seq), len(seqAgain))
	}
	if !bytes.Equal(seq, par) {
		t.Errorf("virtual campaign differs between Workers=1 (%d bytes) and Workers=8 (%d bytes)",
			len(seq), len(par))
	}
	if len(seq) == 0 {
		t.Fatal("virtual campaign rendered nothing")
	}
}

// TestOpsVirtualCampaign is V4's own acceptance gate: the deterministic
// boot→scale→roll→drain campaign must commit its workload, re-stabilize
// the rolled node within Δstb, and show the old-incarnation replay
// rejected by every peer — with zero violations, including the internal
// rerun-and-compare determinism gate (DESIGN.md §12).
func TestOpsVirtualCampaign(t *testing.T) {
	r := V4OpsCampaign(Options{Quick: true, Workers: 4})
	if r.Violations != 0 {
		t.Fatalf("V4: %d violations: %v", r.Violations, r.Notes)
	}
	if len(r.Tables) != 1 {
		t.Fatalf("V4: want 1 table, got %d", len(r.Tables))
	}
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, needle := range []string{"restab", "replay-rejecting", "determinism gate"} {
		if !strings.Contains(buf.String(), needle) {
			t.Errorf("V4 report lost %q", needle)
		}
	}
}

// TestAdversarialVirtualCampaign is V3's own acceptance gate: every
// byte-level attack class must show as injected AND defended (the cells
// assert both counters non-zero, surfacing any failure as a violation),
// every in-situ recovery must land within Δstb = 2Δreset, and the
// generated live campaign must hold the battery — all deterministic, so
// any failure here is a hard bug, never flaky timing (DESIGN.md §10).
func TestAdversarialVirtualCampaign(t *testing.T) {
	r := V3AdversarialLive(Options{Quick: true, Workers: 4})
	if r.Violations != 0 {
		t.Fatalf("V3: %d violations: %v", r.Violations, r.Notes)
	}
	if len(r.Tables) != 3 {
		t.Fatalf("V3: want 3 tables (attack/defense, recovery, campaign), got %d", len(r.Tables))
	}
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	report := buf.String()
	for _, class := range advClasses() {
		if !strings.Contains(report, class.label) {
			t.Errorf("V3 report lost attack class %q", class.label)
		}
	}
}
