package service

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"ssbyz/internal/clock"
	"ssbyz/internal/protocol"
	"ssbyz/internal/simtime"
	"ssbyz/internal/wire"
)

// TestLiveServiceMultiplexed drives the replicated log over real loopback
// sockets with concurrent footnote-9 sessions sharing one socket per
// node: every entry commits and the per-session battery is clean on the
// live trace. Wall-clock, so gated out of -short.
func TestLiveServiceMultiplexed(t *testing.T) {
	if testing.Short() {
		t.Skip("binds loopback sockets and runs wall-clock agreements; skipped in -short")
	}
	pp := protocol.DefaultParams(4)
	pp.D = 60 // keep Δagr wall-time small at the default 100µs tick
	const entries = 6
	arrivals := PoissonArrivals(1, simtime.Real(pp.D), simtime.Duration(pp.D), entries)
	res, err := RunLive(LiveConfig{
		Params:   pp,
		Sessions: 3,
	}, []Workload{{G: 0, Arrivals: arrivals}}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	lr := res.Logs[0]
	if len(lr.Committed) != entries || lr.Failed != 0 || lr.Dropped != 0 {
		t.Fatalf("committed=%d failed=%d dropped=%d, want %d/0/0",
			len(lr.Committed), lr.Failed, lr.Dropped, entries)
	}
	if v := Battery(res.Res, res.Logs); len(v) != 0 {
		t.Fatalf("battery violations on live trace (%d): %v", len(v), v[0])
	}
}

// TestLiveServiceVirtual is the multiplexed service burst under virtual
// time: same pump, same sockets-shaped pipeline, but the cluster runs on
// a fake clock over the deterministic in-memory wire, so it needs no
// -short gate and two executions must agree byte for byte — committed
// logs, commit instants, and the full trace stream. This is the L2
// deterministic-live cell the default `go test ./...` runs.
func TestLiveServiceVirtual(t *testing.T) {
	run := func(seed int64) (*LiveResult, []byte) {
		pp := protocol.DefaultParams(4)
		pp.D = 250
		const entries = 6
		arrivals := PoissonArrivals(1, simtime.Real(pp.D), simtime.Duration(pp.D), entries)
		res, err := RunLive(LiveConfig{
			Params:   pp,
			Sessions: 3,
			Clock:    clock.NewFake(time.Time{}),
			Seed:     seed,
		}, []Workload{{G: 0, Arrivals: arrivals}}, 10*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		var blob []byte
		for _, ev := range res.Res.Rec.Events() {
			blob = wire.AppendTraceEvent(blob, ev)
		}
		return res, blob
	}
	res1, blob1 := run(11)
	res2, blob2 := run(11)
	lr := res1.Logs[0]
	if len(lr.Committed) != 6 || lr.Failed != 0 || lr.Dropped != 0 {
		t.Fatalf("committed=%d failed=%d dropped=%d, want 6/0/0",
			len(lr.Committed), lr.Failed, lr.Dropped)
	}
	if v := Battery(res1.Res, res1.Logs); len(v) != 0 {
		t.Fatalf("battery violations on virtual live trace (%d): %v", len(v), v[0])
	}
	if !bytes.Equal(blob1, blob2) {
		t.Fatalf("virtual service traces differ across executions: %d vs %d bytes", len(blob1), len(blob2))
	}
	for i, e := range res1.Logs[0].Committed {
		e2 := res2.Logs[0].Committed[i]
		if *e != *e2 {
			t.Fatalf("committed entry %d differs across executions: %+v vs %+v", i, e, e2)
		}
	}
}

// TestLiveServiceConcurrentStress is the race-detector stress for the
// session-multiplexed engine: two Generals serve replicated logs at the
// same time, each draining a burst through 8 concurrent footnote-9
// sessions, so node event loops, shared timers, the wire codec, and the
// pump's decide-driven wake-ups all interleave under load. Run under -race
// (CI's service race gate) it proves the multiplexing added no data
// races; in any build the verdict is full commitment and a clean
// per-session battery. Wall-clock, so gated out of -short.
func TestLiveServiceConcurrentStress(t *testing.T) {
	if testing.Short() {
		t.Skip("binds loopback sockets and runs wall-clock agreements; skipped in -short")
	}
	pp := protocol.DefaultParams(4)
	pp.D = 60
	const entries = 8
	burst := make([]simtime.Real, entries)
	for i := range burst {
		burst[i] = simtime.Real(2 * pp.D) // all at once: every session busy
	}
	res, err := RunLive(LiveConfig{
		Params:     pp,
		Sessions:   8,
		QueueLimit: entries,
	}, []Workload{
		{G: 0, Arrivals: burst},
		{G: 1, Arrivals: burst},
	}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// d is 6 ms of wall time here: a loaded host can break the
	// bounded-delay axiom itself, which the transport counts as late drops.
	// Name that on failure rather than only the symptom.
	axiom := fmt.Sprintf("late_drops=%d of %d frames received", res.Stats.LateDrops, res.Stats.Received)
	if res.Stats.LateDrops > 0 {
		axiom = "host broke the d-bound: " + axiom
	}
	for _, lr := range res.Logs {
		if len(lr.Committed) != entries || lr.Failed != 0 || lr.Dropped != 0 {
			t.Fatalf("G%d: committed=%d failed=%d dropped=%d, want %d/0/0 (%s)",
				lr.G, len(lr.Committed), lr.Failed, lr.Dropped, entries, axiom)
		}
	}
	if v := Battery(res.Res, res.Logs); len(v) != 0 {
		t.Fatalf("battery violations on live trace (%d): %v (%s)", len(v), v[0], axiom)
	}
}
