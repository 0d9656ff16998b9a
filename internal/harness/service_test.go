package harness

import (
	"bytes"
	"testing"
)

// TestServiceThroughputFloor is the PR's acceptance gate on experiment
// S3: multiplexing 16 concurrent sessions must sustain at least 4× the
// single-session agreement rate (IG1's Δ0 per-slot admission bound
// predicts ~16×; 4× leaves margin for queue-shed edge effects), with
// zero property violations across the whole sweep.
func TestServiceThroughputFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("S3 quick sweep exceeds -short budget")
	}
	_, violations, _, thr, errs := ServiceThroughputTable(Options{Quick: true}, ServiceConcurrency())
	for _, e := range errs {
		t.Errorf("cell error: %s", e)
	}
	if violations != 0 {
		t.Fatalf("S3 sweep produced %d property violations", violations)
	}
	if thr[1] <= 0 {
		t.Fatalf("single-session throughput %.4f not positive", thr[1])
	}
	if ratio := thr[16] / thr[1]; ratio < 4 {
		t.Fatalf("concurrency 16 sustains only ×%.2f the single-session rate, want ≥4×", ratio)
	}
}

// TestServiceDeterministicAcrossWorkers pins the suite contract for S3:
// the rendered experiment (tables, notes, violation count) is
// byte-identical whether its cells run sequentially or on 8 workers —
// every cell is a sealed simulator world, and aggregation happens in
// presentation order after the barrier.
func TestServiceDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("S3 quick sweep exceeds -short budget")
	}
	render := func(workers int) string {
		r := S3Service(Options{Quick: true, Workers: workers})
		var buf bytes.Buffer
		if _, err := r.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Fatalf("S3 report differs across worker counts:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", seq, par)
	}
}
