package main

import (
	"path/filepath"
	"testing"
)

// TestCommittedSpecsReplayClean replays every scenario spec committed
// under testdata/ — the virtual cluster forms CI runs with -replay — and
// requires a clean verdict, so the data CI depends on cannot rot.
func TestCommittedSpecsReplayClean(t *testing.T) {
	paths, err := filepath.Glob("testdata/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed specs under testdata/ (%v)", err)
	}
	for _, p := range paths {
		if err := replayScenario(p); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
}
