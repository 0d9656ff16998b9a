package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// benchArtifact mirrors the Suite JSON fields the guard reads.
type benchArtifact struct {
	Results []struct {
		ID         string             `json:"id"`
		WallMS     float64            `json:"wall_ms"`
		CellWallMS map[string]float64 `json:"cell_wall_ms"`
		Floors     map[string]float64 `json:"floors"`
	} `json:"results"`
}

func loadArtifact(t *testing.T, name string) *benchArtifact {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "..", name))
	if err != nil {
		t.Fatalf("missing committed bench artifact: %v", err)
	}
	var a benchArtifact
	if err := json.Unmarshal(blob, &a); err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	return &a
}

func (a *benchArtifact) s1() (wallMS float64, cellWall map[string]float64, ok bool) {
	for _, r := range a.Results {
		if r.ID == "S1" {
			return r.WallMS, r.CellWallMS, true
		}
	}
	return 0, nil, false
}

// s1CellN64 extracts one artifact's n=64 S1 per-seed cost.
func s1CellN64(t *testing.T, name string) float64 {
	t.Helper()
	_, cells, ok := loadArtifact(t, name).s1()
	if !ok {
		t.Fatalf("%s has no S1 result", name)
	}
	v, ok := cells["64"]
	if !ok || v <= 0 {
		t.Fatalf("%s S1 cell_wall_ms has no n=64 entry: %v", name, cells)
	}
	return v
}

// TestBenchArtifactN64Guard is the cross-PR perf regression guard on the
// committed BENCH artifacts (policy in DESIGN.md §5): each generation's
// n=64 S1 per-seed cost (cell_wall_ms["64"]) must not regress past 2×
// the previous generation's. The numbers were measured on the builder
// machine of their PR, so the factor-two margin absorbs machine deltas
// while still catching superlinear regressions.
func TestBenchArtifactN64Guard(t *testing.T) {
	chain := []string{"BENCH_PR3_quick.json", "BENCH_PR4_quick.json", "BENCH_PR5_quick.json", "BENCH_PR6_quick.json", "BENCH_PR7_quick.json", "BENCH_PR8_quick.json", "BENCH_PR9_quick.json", "BENCH_PR10_quick.json"}
	for i := 1; i < len(chain); i++ {
		prev, cur := s1CellN64(t, chain[i-1]), s1CellN64(t, chain[i])
		if cur > 2*prev {
			t.Fatalf("n=64 S1 cost regressed: %s %.0fms/seed > 2× %s %.0fms/seed",
				chain[i], cur, chain[i-1], prev)
		}
		t.Logf("n=64 S1: %s %.0fms/seed vs %s %.0fms/seed (ratio %.2f)",
			chain[i], cur, chain[i-1], prev, cur/prev)
	}
}

// TestBenchArtifactCoversN128 pins the newest committed artifact to the
// sweep shape: the quick S1 table must include an n=128 row with its
// wall-clock recorded.
func TestBenchArtifactCoversN128(t *testing.T) {
	_, cells, ok := loadArtifact(t, "BENCH_PR5_quick.json").s1()
	if !ok {
		t.Fatal("BENCH_PR5_quick.json has no S1 result")
	}
	if v, found := cells["128"]; !found || v <= 0 {
		t.Fatalf("BENCH_PR5_quick.json S1 cell_wall_ms has no n=128 entry: %v", cells)
	}
}

// TestBenchArtifactCoversS2 pins the newest committed artifact to the
// suite shape introduced with the scenario engine: an S2 result with a
// campaign table and zero violations must be recorded.
func TestBenchArtifactCoversS2(t *testing.T) {
	a := loadArtifact(t, "BENCH_PR5_quick.json")
	for _, r := range a.Results {
		if r.ID == "S2" {
			return
		}
	}
	t.Fatal("BENCH_PR5_quick.json has no S2 result")
}

// TestBenchArtifactCoversL1 pins the newest committed artifact to the
// live-runtime generation's shape: an L1 result with live per-cell wall
// costs for the UDP sweep, the TCP baseline, and the chaos replay
// (the since-removed `ssbyz-bench -quick -live -json` produced it — L1
// was appended explicitly because its numbers were wall-clock).
func TestBenchArtifactCoversL1(t *testing.T) {
	a := loadArtifact(t, "BENCH_PR5_quick.json")
	for _, r := range a.Results {
		if r.ID != "L1" {
			continue
		}
		for _, key := range []string{"udp/4", "udp/7", "udp/16", "tcp/4", "chaos/7"} {
			if v, ok := r.CellWallMS[key]; !ok || v <= 0 {
				t.Errorf("BENCH_PR5_quick.json L1 cell_wall_ms[%q] = %v, want > 0", key, v)
			}
		}
		return
	}
	t.Fatal("BENCH_PR5_quick.json has no L1 result")
}

// TestBenchArtifactCoversS3 pins the newest committed artifact to the
// service generation's shape: an S3 result with the per-concurrency
// sweep costed for every point of ServiceConcurrency().
func TestBenchArtifactCoversS3(t *testing.T) {
	a := loadArtifact(t, "BENCH_PR6_quick.json")
	for _, r := range a.Results {
		if r.ID != "S3" {
			continue
		}
		for _, c := range ServiceConcurrency() {
			key := fmt.Sprintf("c%d", c)
			if v, ok := r.CellWallMS[key]; !ok || v <= 0 {
				t.Errorf("BENCH_PR6_quick.json S3 cell_wall_ms[%q] = %v, want > 0", key, v)
			}
		}
		return
	}
	t.Fatal("BENCH_PR6_quick.json has no S3 result")
}

// TestBenchArtifactCoversV1V2 pins the virtual-time generation's shape:
// the committed artifact must carry the deterministic mirrors V1 and V2
// (DESIGN.md §9). Unlike S1/L1/L2 they record no cell_wall_ms — their
// tables are exact, so only the suite-level wall cost is machine-varying
// — hence the guard checks presence by ID and a recorded wall_ms.
func TestBenchArtifactCoversV1V2(t *testing.T) {
	a := loadArtifact(t, "BENCH_PR7_quick.json")
	for _, id := range []string{"V1", "V2"} {
		found := false
		for _, r := range a.Results {
			if r.ID == id {
				found = true
				if r.WallMS <= 0 {
					t.Errorf("BENCH_PR7_quick.json %s wall_ms = %v, want > 0", id, r.WallMS)
				}
				break
			}
		}
		if !found {
			t.Errorf("BENCH_PR7_quick.json has no %s result", id)
		}
	}
}

// TestBenchArtifactCoversV3L3 pins the adversarial-campaign generation's
// shape (DESIGN.md §10): the committed artifact must carry V3 (the
// deterministic attack/defense + in-situ recovery + generated-fuzz
// campaign, costed at the suite level like V1/V2) and L3 (its
// real-socket smoke, with every attack-subset cell and the recovery
// cell individually costed — the since-removed `ssbyz-bench -quick
// -live -json` appended it after L2).
func TestBenchArtifactCoversV3L3(t *testing.T) {
	a := loadArtifact(t, "BENCH_PR8_quick.json")
	foundV3, foundL3 := false, false
	for _, r := range a.Results {
		switch r.ID {
		case "V3":
			foundV3 = true
			if r.WallMS <= 0 {
				t.Errorf("BENCH_PR8_quick.json V3 wall_ms = %v, want > 0", r.WallMS)
			}
		case "L3":
			foundL3 = true
			for _, key := range []string{"corrupt/4", "forge/4", "duplicate/4", "replay-xepoch/4", "recovery/4"} {
				if v, ok := r.CellWallMS[key]; !ok || v <= 0 {
					t.Errorf("BENCH_PR8_quick.json L3 cell_wall_ms[%q] = %v, want > 0", key, v)
				}
			}
		}
	}
	if !foundV3 {
		t.Error("BENCH_PR8_quick.json has no V3 result")
	}
	if !foundL3 {
		t.Error("BENCH_PR8_quick.json has no L3 result")
	}
}

// TestBenchArtifactCoversV4L4 pins the cluster-operations generation's
// shape (DESIGN.md §12): the committed artifact must carry V4 (the
// deterministic operations campaign — scale-up, rolling replacement
// within Δstb, old-incarnation replay rejection — costed at the suite
// level like V1/V2/V3, since its tables are exact) and L4 (the same
// campaign over real UDP sockets with its per-seed campaign cell
// costed — the since-removed `-live` flag appended it after L3).
func TestBenchArtifactCoversV4L4(t *testing.T) {
	a := loadArtifact(t, "BENCH_PR10_quick.json")
	foundV4, foundL4 := false, false
	for _, r := range a.Results {
		switch r.ID {
		case "V4":
			foundV4 = true
			if r.WallMS <= 0 {
				t.Errorf("BENCH_PR10_quick.json V4 wall_ms = %v, want > 0", r.WallMS)
			}
		case "L4":
			foundL4 = true
			if v, ok := r.CellWallMS["campaign/0"]; !ok || v <= 0 {
				t.Errorf("BENCH_PR10_quick.json L4 cell_wall_ms[%q] = %v, want > 0", "campaign/0", v)
			}
		}
	}
	if !foundV4 {
		t.Error("BENCH_PR10_quick.json has no V4 result")
	}
	if !foundL4 {
		t.Error("BENCH_PR10_quick.json has no L4 result")
	}
}

// TestBenchArtifactCoversL2 pins the live service spot-check: an L2
// result with both session-concurrency cells costed (the since-removed
// `ssbyz-bench -quick -live -json` appended L2 after L1; wall-clock).
func TestBenchArtifactCoversL2(t *testing.T) {
	a := loadArtifact(t, "BENCH_PR6_quick.json")
	for _, r := range a.Results {
		if r.ID != "L2" {
			continue
		}
		for _, key := range []string{"svc/udp/4/c1", "svc/udp/4/c8"} {
			if v, ok := r.CellWallMS[key]; !ok || v <= 0 {
				t.Errorf("BENCH_PR6_quick.json L2 cell_wall_ms[%q] = %v, want > 0", key, v)
			}
		}
		return
	}
	t.Fatal("BENCH_PR6_quick.json has no L2 result")
}

// TestBenchArtifactCoversPR9 pins the wire-rate generation's shape and
// its headline number: the committed artifact's L1 result must carry the
// transport pump cell (cell_wall_ms["pump/16"]) and a recorded floor of
// at least 10^6 aggregate msgs/sec on the n=16 loopback pump
// (floors["udp_pump_msgs_per_sec_n16"], DESIGN.md §11). The floor was
// measured on the builder machine of this PR; the guard keeps any future
// hot-path regression from silently re-committing a slower artifact.
func TestBenchArtifactCoversPR9(t *testing.T) {
	a := loadArtifact(t, "BENCH_PR9_quick.json")
	for _, r := range a.Results {
		if r.ID != "L1" {
			continue
		}
		if v, ok := r.CellWallMS["pump/16"]; !ok || v <= 0 {
			t.Errorf("BENCH_PR9_quick.json L1 cell_wall_ms[%q] = %v, want > 0", "pump/16", v)
		}
		rate, ok := r.Floors["udp_pump_msgs_per_sec_n16"]
		if !ok {
			t.Fatalf("BENCH_PR9_quick.json L1 records no udp_pump_msgs_per_sec_n16 floor: %v", r.Floors)
		}
		if rate < 1e6 {
			t.Errorf("committed pump floor %.0f msgs/sec is below the 10^6 wire-rate target", rate)
		}
		return
	}
	t.Fatal("BENCH_PR9_quick.json has no L1 result")
}
