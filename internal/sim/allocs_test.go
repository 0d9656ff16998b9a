package sim

import (
	"runtime"
	"runtime/debug"
	"testing"

	"ssbyz/internal/protocol"
)

// maxAgreementMallocs bounds the heap objects one fault-free n = 16
// agreement allocates (world set-up, every handler, the recorder). It sits
// a few percent above the measured count, so a change that adds an object
// per message or per reception record fails it.
const maxAgreementMallocs = 3300 // measured 3 187 (go1.24, linux/amd64)

// TestAgreementAllocs counts the heap objects (runtime.MemStats.Mallocs,
// GC off) that one sim.Run of a fixed fault-free n = 16 agreement with
// delays in [d/2, d] allocates, after a warm run. A count, not a time, so
// it gates the per-message and per-record allocations on any host.
func TestAgreementAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	sc := Scenario{
		Params:      protocol.DefaultParams(16),
		Seed:        1,
		Initiations: []Initiation{{At: 0, G: 0, Value: "v"}},
	}
	run := func() *Result {
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	run() // warm: one-time package state and pools
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := run()
	runtime.ReadMemStats(&after)
	mallocs := after.Mallocs - before.Mallocs
	msgs, _ := res.World.MessageCount()
	t.Logf("one n = 16 agreement: %d mallocs, %.2f MB, %d messages",
		mallocs, float64(after.TotalAlloc-before.TotalAlloc)/1e6, msgs)
	if decs := res.Decisions(0); len(decs) != sc.Params.N {
		t.Fatalf("%d of %d nodes decided", len(decs), sc.Params.N)
	}
	if mallocs > maxAgreementMallocs {
		t.Errorf("%d mallocs for one agreement, gate %d", mallocs, maxAgreementMallocs)
	}
}
