package nettrans

import (
	"bytes"
	"encoding/binary"
	"sort"
	"testing"
	"time"

	"ssbyz/internal/check"
	"ssbyz/internal/clock"
	"ssbyz/internal/protocol"
	"ssbyz/internal/simtime"
	"ssbyz/internal/wire"
)

// virtualParams sizes a virtual cluster like the harness's V1 cells:
// d = 250 ticks of 100µs — no wall clock is involved, the numbers only
// feed the protocol constants.
func virtualParams(n int) protocol.Params {
	pp := protocol.DefaultParams(n)
	pp.D = 250
	return pp
}

// goldenRun executes one seeded 7-node virtual UDP agreement to a fixed
// virtual horizon and returns the run's two captured byte streams — the
// trace (every TraceEvent as a concatenated wire.AppendTraceEvent
// record, the body a daemon serves on GET /trace) and the wire record
// (every frame the virtual wire carried, with from/to headers) — plus
// the battery verdict count and the decide count.
func goldenRun(t *testing.T, seed int64) (traceBlob, wireBlob []byte, decided, violations int) {
	t.Helper()
	pp := virtualParams(7)
	clk := clock.NewFake(time.Time{})
	c, err := NewCluster(ClusterConfig{
		Params: pp,
		Tick:   100 * time.Microsecond,
		Clock:  clk,
		Seed:   seed,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Stop()

	t0, _, err := c.Initiate(0, 0, "golden")
	if err != nil {
		t.Fatalf("Initiate: %v", err)
	}
	horizon := simtime.Duration(pp.DeltaAgr() + 20*pp.D)
	c.StepUntil(func() bool { return false }, horizon)
	decided = c.countDecided(0, "golden")

	res := c.Result(horizon)
	lr := &check.LiveResult{Result: res}
	violations = len(lr.Battery([]check.LiveInitiation{{G: 0, V: "golden", T0: t0}}))

	// Canonicalize the trace the way a driver merges per-node /trace
	// bodies: by (tick, node), keeping each node's own event order. Node
	// event loops append to the shared recorder concurrently within a
	// fake-clock cascade, so the raw cross-node arrival order is
	// scheduler noise; each node's stream and every timestamp are exact.
	events := c.rec.Events()
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].RT != events[j].RT {
			return events[i].RT < events[j].RT
		}
		return events[i].Node < events[j].Node
	})
	for _, ev := range events {
		traceBlob = wire.AppendTraceEvent(traceBlob, ev)
	}
	for _, fr := range c.Frames() {
		var hdr [8]byte
		binary.BigEndian.PutUint32(hdr[0:4], uint32(fr.From))
		binary.BigEndian.PutUint32(hdr[4:8], uint32(fr.To))
		wireBlob = append(wireBlob, hdr[:]...)
		wireBlob = append(wireBlob, fr.Bytes...)
	}
	return traceBlob, wireBlob, decided, violations
}

// TestVirtualGoldenRecordReplay is the record/replay golden test: two
// executions of the same seeded 7-node virtual-time UDP run must be
// byte-identical in both their wire record and their trace stream, the
// battery must be clean, and the captured trace — decoded back from its
// wire records like a daemon's /trace body — must reproduce the exact
// verdict through check.LiveResult.
func TestVirtualGoldenRecordReplay(t *testing.T) {
	trace1, wire1, decided1, viol1 := goldenRun(t, 42)
	trace2, wire2, decided2, viol2 := goldenRun(t, 42)

	if decided1 != 7 {
		t.Fatalf("decided = %d, want 7", decided1)
	}
	if viol1 != 0 {
		t.Fatalf("battery reported %d violations on a healthy virtual run", viol1)
	}
	if decided2 != decided1 || viol2 != viol1 {
		t.Fatalf("verdict differs across executions: decided %d vs %d, violations %d vs %d",
			decided1, decided2, viol1, viol2)
	}
	if !bytes.Equal(wire1, wire2) {
		t.Fatalf("wire record differs across executions: %d vs %d bytes", len(wire1), len(wire2))
	}
	if !bytes.Equal(trace1, trace2) {
		t.Fatalf("trace stream differs across executions: %d vs %d bytes", len(trace1), len(trace2))
	}
	if len(wire1) == 0 || len(trace1) == 0 {
		t.Fatal("empty capture: the virtual wire recorded nothing")
	}

	// Replay: decode the captured trace records and re-run the battery.
	var events []protocol.TraceEvent
	var t0 simtime.Real
	rest := trace1
	for len(rest) > 0 {
		ev, n, err := wire.DecodeTraceEvent(rest)
		if err != nil {
			t.Fatalf("replay: trace decode: %v", err)
		}
		rest = rest[n:]
		if ev.Kind == protocol.EvInitiate && ev.Node == 0 && ev.M == "golden" {
			t0 = ev.RT
		}
		events = append(events, ev)
	}
	pp := virtualParams(7)
	correct := []protocol.NodeID{0, 1, 2, 3, 4, 5, 6}
	res := BuildResult(pp, events, correct, simtime.Duration(pp.DeltaAgr()+20*pp.D))
	lr := &check.LiveResult{Result: res}
	if v := lr.Battery([]check.LiveInitiation{{G: 0, V: "golden", T0: t0}}); len(v) != 0 {
		t.Fatalf("replayed trace reports %d violations: %v", len(v), v)
	}
	replayDecides := 0
	for _, d := range res.Decisions(0) {
		if d.Decided && d.Value == "golden" {
			replayDecides++
		}
	}
	if replayDecides != decided1 {
		t.Fatalf("replay decides = %d, live decides = %d", replayDecides, decided1)
	}
}

// TestVirtualSeedsDiverge guards the capture against a trivially
// constant wire: different seeds must produce different delivery
// schedules (if they did not, the determinism pin above would be
// vacuous).
func TestVirtualSeedsDiverge(t *testing.T) {
	_, w1, _, _ := goldenRun(t, 1)
	_, w2, _, _ := goldenRun(t, 2)
	if bytes.Equal(w1, w2) {
		t.Fatal("wire records of different seeds are identical — the seed is not reaching the wire")
	}
}

// TestVirtualTCPAndChaos smoke-tests the other transport and the chaos
// layer under virtual time: a lossless TCP run decides, and a UDP run
// with a crashed node still decides on the surviving quorum.
func TestVirtualTCPAndChaos(t *testing.T) {
	t.Run("tcp", func(t *testing.T) {
		pp := virtualParams(4)
		clk := clock.NewFake(time.Time{})
		c, err := NewCluster(ClusterConfig{
			Params: pp, Tick: 100 * time.Microsecond,
			Transport: TransportTCP, Clock: clk, Seed: 3,
		})
		if err != nil {
			t.Fatalf("NewCluster: %v", err)
		}
		defer c.Stop()
		if _, _, err := c.Initiate(0, 0, "tcp-v"); err != nil {
			t.Fatalf("Initiate: %v", err)
		}
		budget := time.Duration(pp.DeltaAgr()+20*pp.D) * c.Tick()
		if done := c.AwaitDecisions(0, "tcp-v", budget); done != 4 {
			t.Fatalf("decided = %d/4", done)
		}
	})
	t.Run("crash", func(t *testing.T) {
		pp := virtualParams(7)
		clk := clock.NewFake(time.Time{})
		c, err := NewCluster(ClusterConfig{
			Params: pp, Tick: 100 * time.Microsecond,
			Clock: clk, Seed: 4,
			Faulty: map[protocol.NodeID]protocol.Node{6: nil},
		})
		if err != nil {
			t.Fatalf("NewCluster: %v", err)
		}
		defer c.Stop()
		if _, _, err := c.Initiate(0, 0, "crash-v"); err != nil {
			t.Fatalf("Initiate: %v", err)
		}
		budget := time.Duration(pp.DeltaAgr()+20*pp.D) * c.Tick()
		if done := c.AwaitDecisions(0, "crash-v", budget); done != 6 {
			t.Fatalf("decided = %d/6 correct nodes", done)
		}
		res := c.Result(simtime.Duration(c.NowTicks()) + 1)
		lr := &check.LiveResult{Result: res}
		if v := lr.Battery(nil); len(v) != 0 {
			t.Fatalf("battery: %v", v)
		}
	})
}
