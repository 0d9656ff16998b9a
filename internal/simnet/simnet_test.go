package simnet

import (
	"testing"

	"ssbyz/internal/protocol"
	"ssbyz/internal/simtime"
)

// probe is a minimal protocol.Node recording everything it sees.
type probe struct {
	rt       protocol.Runtime
	started  bool
	messages []recvd
	timers   []protocol.TimerTag
	onStart  func(rt protocol.Runtime)
}

type recvd struct {
	from protocol.NodeID
	msg  protocol.Message
	at   simtime.Local
}

func (p *probe) Start(rt protocol.Runtime) {
	p.rt = rt
	p.started = true
	if p.onStart != nil {
		p.onStart(rt)
	}
}

func (p *probe) OnMessage(from protocol.NodeID, m protocol.Message) {
	p.messages = append(p.messages, recvd{from: from, msg: m, at: p.rt.Now()})
}

func (p *probe) OnTimer(tag protocol.TimerTag) { p.timers = append(p.timers, tag) }

func newWorld(t *testing.T, cfg Config) *World {
	t.Helper()
	if cfg.Params.N == 0 {
		cfg.Params = protocol.DefaultParams(4)
	}
	w, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return w
}

func TestNewValidation(t *testing.T) {
	pp := protocol.DefaultParams(4)
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"defaults", Config{Params: pp}, true},
		{"bad params", Config{Params: protocol.Params{N: 6, F: 2, D: 10}}, false},
		{"delay above d", Config{Params: pp, DelayMax: pp.D + 1}, false},
		{"inverted range", Config{Params: pp, DelayMin: 900, DelayMax: 500}, false},
		{"negative min", Config{Params: pp, DelayMin: -1, DelayMax: 5}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.cfg); (err == nil) != tc.ok {
				t.Errorf("New error = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

func TestDeliveryWithinBounds(t *testing.T) {
	pp := protocol.DefaultParams(4)
	w := newWorld(t, Config{Params: pp, Seed: 1, DelayMin: 200, DelayMax: 700})
	probes := make([]*probe, 4)
	for i := range probes {
		probes[i] = &probe{}
		w.SetNode(protocol.NodeID(i), probes[i])
	}
	w.Start()
	var sentAt simtime.Real
	w.Scheduler().At(100, func() {
		sentAt = w.Now()
		w.Runtime(0).Broadcast(protocol.Message{Kind: protocol.Support, G: 0, M: "x"})
	})
	w.RunUntil(5000)
	for i, p := range probes {
		if len(p.messages) != 1 {
			t.Fatalf("node %d received %d messages, want 1", i, len(p.messages))
		}
		lat := simtime.Duration(p.messages[0].at) - simtime.Duration(sentAt)
		if lat < 200 || lat > 700 {
			t.Errorf("node %d delivery latency %d outside [200,700]", i, lat)
		}
	}
}

func TestSenderIsAuthenticated(t *testing.T) {
	w := newWorld(t, Config{Seed: 2})
	p := &probe{}
	w.SetNode(0, p)
	w.SetNode(1, &probe{})
	w.SetNode(2, &probe{})
	w.SetNode(3, &probe{})
	w.Start()
	// Node 3 claims to be node 1 inside the body; the transport must stamp
	// the true sender.
	w.Scheduler().At(0, func() {
		w.Runtime(3).Send(0, protocol.Message{Kind: protocol.Support, G: 0, M: "x", From: 1})
	})
	w.RunUntil(5000)
	if len(p.messages) != 1 {
		t.Fatalf("received %d messages, want 1", len(p.messages))
	}
	if p.messages[0].from != 3 || p.messages[0].msg.From != 3 {
		t.Errorf("sender not authenticated: from=%d msg.From=%d, want 3", p.messages[0].from, p.messages[0].msg.From)
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	run := func(seed int64) []recvd {
		w := newWorld(t, Config{Seed: seed})
		p := &probe{}
		w.SetNode(0, p)
		for i := 1; i < 4; i++ {
			w.SetNode(protocol.NodeID(i), &probe{})
		}
		w.Start()
		for k := 0; k < 10; k++ {
			k := k
			w.Scheduler().At(simtime.Real(k*100), func() {
				w.Runtime(1).Broadcast(protocol.Message{Kind: protocol.Support, G: 0, M: protocol.Value(rune('a' + k))})
			})
		}
		w.RunUntil(50000)
		return p.messages
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatalf("different event counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := run(8)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical delivery schedules")
	}
}

func TestDropFn(t *testing.T) {
	w := newWorld(t, Config{Seed: 3})
	p := &probe{}
	w.SetNode(0, p)
	for i := 1; i < 4; i++ {
		w.SetNode(protocol.NodeID(i), &probe{})
	}
	w.SetDropFn(func(from, to protocol.NodeID, m protocol.Message) bool { return to == 0 })
	w.Start()
	w.Scheduler().At(0, func() {
		w.Runtime(1).Broadcast(protocol.Message{Kind: protocol.Support, G: 0, M: "x"})
	})
	w.RunUntil(5000)
	if len(p.messages) != 0 {
		t.Errorf("dropped message delivered: %+v", p.messages)
	}
	total, _ := w.MessageCount()
	if total != 4 {
		t.Errorf("MessageCount = %d, want 4 (drops still count as sends)", total)
	}
}

func TestMessageCountPerKind(t *testing.T) {
	w := newWorld(t, Config{Seed: 4})
	for i := 0; i < 4; i++ {
		w.SetNode(protocol.NodeID(i), &probe{})
	}
	w.Start()
	w.Scheduler().At(0, func() {
		w.Runtime(0).Broadcast(protocol.Message{Kind: protocol.Support, G: 0})
		w.Runtime(0).Send(1, protocol.Message{Kind: protocol.Echo, G: 0})
	})
	w.RunUntil(5000)
	total, byKind := w.MessageCount()
	if total != 5 {
		t.Errorf("total = %d, want 5", total)
	}
	if byKind[protocol.Support] != 4 || byKind[protocol.Echo] != 1 {
		t.Errorf("byKind = %v", byKind)
	}
}

func TestTimerOnDriftingClock(t *testing.T) {
	pp := protocol.DefaultParams(4)
	clocks := []simtime.Clock{
		simtime.DriftClock(0, -100_000, 0), // 10% slow
		{}, {}, {},
	}
	w := newWorld(t, Config{Params: pp, Seed: 5, Clocks: clocks})
	p := &probe{}
	var fireLocal simtime.Local
	p.onStart = func(rt protocol.Runtime) {
		start := rt.Now()
		rt.After(1000, protocol.TimerTag{Name: "t"})
		fireLocal = start
	}
	w.SetNode(0, p)
	for i := 1; i < 4; i++ {
		w.SetNode(protocol.NodeID(i), &probe{})
	}
	w.Start()
	w.RunUntil(5000)
	if len(p.timers) != 1 {
		t.Fatalf("timers fired: %d, want 1", len(p.timers))
	}
	// On a 10% slow clock, 1000 local ticks need ≥ 1111 real ticks; the
	// local elapsed at fire time must be ≥ the requested 1000.
	elapsed := w.LocalNow(0).Sub(fireLocal)
	if elapsed < 1000 {
		t.Errorf("timer fired after %d local ticks, want ≥ 1000", elapsed)
	}
}

func TestTimerCancel(t *testing.T) {
	w := newWorld(t, Config{Seed: 6})
	p := &probe{}
	var id protocol.TimerID
	p.onStart = func(rt protocol.Runtime) {
		id = rt.After(1000, protocol.TimerTag{Name: "t"})
	}
	w.SetNode(0, p)
	for i := 1; i < 4; i++ {
		w.SetNode(protocol.NodeID(i), &probe{})
	}
	w.Start()
	w.Scheduler().At(10, func() { w.Runtime(0).Cancel(id) })
	w.RunUntil(5000)
	if len(p.timers) != 0 {
		t.Errorf("cancelled timer fired: %v", p.timers)
	}
}

func TestNegativeTimerFiresImmediately(t *testing.T) {
	w := newWorld(t, Config{Seed: 7})
	p := &probe{}
	p.onStart = func(rt protocol.Runtime) {
		rt.After(-50, protocol.TimerTag{Name: "neg"})
	}
	w.SetNode(0, p)
	for i := 1; i < 4; i++ {
		w.SetNode(protocol.NodeID(i), &probe{})
	}
	w.Start()
	w.RunUntil(1)
	if len(p.timers) != 1 {
		t.Errorf("negative-delay timer did not fire promptly: %v", p.timers)
	}
}

func TestInjectDelivery(t *testing.T) {
	w := newWorld(t, Config{Seed: 8})
	p := &probe{}
	w.SetNode(0, p)
	for i := 1; i < 4; i++ {
		w.SetNode(protocol.NodeID(i), &probe{})
	}
	w.Start()
	// Forged sender: models residue of the faulty network period.
	w.InjectDelivery(0, protocol.Message{Kind: protocol.Ready, G: 2, M: "ghost", From: 2}, 500)
	w.RunUntil(1000)
	if len(p.messages) != 1 || p.messages[0].from != 2 {
		t.Fatalf("injected delivery missing or wrong: %+v", p.messages)
	}
	total, _ := w.MessageCount()
	if total != 0 {
		t.Errorf("injected delivery counted as a send: %d", total)
	}
}

func TestAdversarySendAtClamped(t *testing.T) {
	pp := protocol.DefaultParams(4)
	w := newWorld(t, Config{Params: pp, Seed: 9, DelayMin: 100, DelayMax: 300})
	p := &probe{}
	w.SetNode(0, p)
	for i := 1; i < 4; i++ {
		w.SetNode(protocol.NodeID(i), &probe{})
	}
	w.Start()
	w.Scheduler().At(0, func() {
		adv := w.Runtime(3).(AdversaryRuntime)
		adv.SendAt(0, protocol.Message{Kind: protocol.Support, G: 0, M: "early"}, 0)
		adv.SendAt(0, protocol.Message{Kind: protocol.Support, G: 0, M: "late"}, 99999)
	})
	w.RunUntil(5000)
	if len(p.messages) != 2 {
		t.Fatalf("received %d messages, want 2", len(p.messages))
	}
	for _, r := range p.messages {
		at := simtime.Duration(r.at)
		if at < 100 || at > 300 {
			t.Errorf("adversarial delay escaped the clamp: delivered at %d", at)
		}
	}
}

func TestNilNodeIsSilent(t *testing.T) {
	w := newWorld(t, Config{Seed: 10})
	p := &probe{}
	w.SetNode(0, p)
	w.SetNode(1, &probe{})
	w.SetNode(2, &probe{})
	// Node 3 left nil: sends to it must not panic.
	w.Start()
	w.Scheduler().At(0, func() {
		w.Runtime(0).Broadcast(protocol.Message{Kind: protocol.Support, G: 0, M: "x"})
	})
	w.RunUntil(5000)
}

func TestStartIdempotent(t *testing.T) {
	w := newWorld(t, Config{Seed: 11})
	p := &probe{}
	startCount := 0
	p.onStart = func(protocol.Runtime) { startCount++ }
	w.SetNode(0, p)
	for i := 1; i < 4; i++ {
		w.SetNode(protocol.NodeID(i), &probe{})
	}
	w.Start()
	w.Start()
	if startCount != 1 {
		t.Errorf("Start ran %d times, want 1", startCount)
	}
}

func TestClockOffsetsVisible(t *testing.T) {
	clocks := []simtime.Clock{{OffsetTicks: 5000}, {}, {}, {}}
	w := newWorld(t, Config{Seed: 12, Clocks: clocks})
	for i := 0; i < 4; i++ {
		w.SetNode(protocol.NodeID(i), &probe{})
	}
	w.Start()
	w.RunUntil(100)
	if got := w.LocalNow(0) - w.LocalNow(1); got != 5000 {
		t.Errorf("offset difference = %d, want 5000", got)
	}
}

func TestTraceStampsNodeAndTimes(t *testing.T) {
	w := newWorld(t, Config{Seed: 13})
	for i := 0; i < 4; i++ {
		w.SetNode(protocol.NodeID(i), &probe{})
	}
	w.Start()
	w.Scheduler().At(777, func() {
		w.Runtime(2).Trace(protocol.TraceEvent{Kind: protocol.EvInvoke, G: 1})
	})
	w.RunUntil(1000)
	evs := w.Recorder().Events()
	if len(evs) != 1 {
		t.Fatalf("recorded %d events, want 1", len(evs))
	}
	if evs[0].Node != 2 || evs[0].RT != 777 {
		t.Errorf("trace stamp = node %d rt %d, want node 2 rt 777", evs[0].Node, evs[0].RT)
	}
}

// TestRTauGReconstruction: the transport's realOf must invert the local
// clock exactly for ideal clocks and within rounding for drifting ones.
func TestRTauGReconstruction(t *testing.T) {
	clocks := []simtime.Clock{
		{OffsetTicks: 1234},
		simtime.DriftClock(0, +200, 0),
		{}, {},
	}
	w := newWorld(t, Config{Seed: 14, Clocks: clocks})
	for i := 0; i < 4; i++ {
		w.SetNode(protocol.NodeID(i), &probe{})
	}
	w.Start()
	var tauAt500 simtime.Local
	w.Scheduler().At(500, func() { tauAt500 = w.LocalNow(0) })
	w.Scheduler().At(900, func() {
		w.Runtime(0).Trace(protocol.TraceEvent{Kind: protocol.EvIAccept, G: 0, TauG: tauAt500})
	})
	w.RunUntil(1000)
	evs := w.Recorder().ByKind(protocol.EvIAccept)
	if len(evs) != 1 {
		t.Fatalf("events = %d, want 1", len(evs))
	}
	if diff := evs[0].RTauG - 500; diff < -1 || diff > 1 {
		t.Errorf("rt(τG) reconstructed as %d, want 500±1", evs[0].RTauG)
	}
}

// recordsHome reports whether every send record ever made is back in the
// pool.
func recordsHome(w *World) bool { return len(w.recPool) == w.records }

// TestRecordReturnedWhenAllDropped: a broadcast whose every recipient is
// dropped schedules nothing and returns its record at once.
func TestRecordReturnedWhenAllDropped(t *testing.T) {
	for _, narrow := range []bool{false, true} {
		cfg := Config{Seed: 15}
		if narrow {
			cfg.Params = protocol.DefaultParams(4)
			cfg.DelayMin, cfg.DelayMax = 5, 5
		}
		w := newWorld(t, cfg)
		w.SetDropFn(func(protocol.NodeID, protocol.NodeID, protocol.Message) bool { return true })
		w.Runtime(0).Broadcast(protocol.Message{Kind: protocol.Support, G: 0, M: "x"})
		if w.Scheduler().Pending() != 0 {
			t.Errorf("narrow=%v: %d events scheduled for dropped messages", narrow, w.Scheduler().Pending())
		}
		if w.records != 1 || !recordsHome(w) {
			t.Errorf("narrow=%v: %d records made, %d pooled; want 1 made and back", narrow, w.records, len(w.recPool))
		}
	}
}

// rebroadcaster re-broadcasts the first message it receives under a new
// value, from inside the delivery of the original send.
type rebroadcaster struct {
	probe
	done bool
}

func (r *rebroadcaster) OnMessage(from protocol.NodeID, m protocol.Message) {
	r.probe.OnMessage(from, m)
	if !r.done {
		r.done = true
		r.rt.Broadcast(protocol.Message{Kind: protocol.Support, G: 0, M: "echo"})
	}
}

// TestRebroadcastDuringDispatch: a recipient that broadcasts while one of
// its send's deliveries is being dispatched takes a fresh record (or
// reuses a finished one); the original send's remaining recipients still
// receive the original message, on both fan-out paths.
func TestRebroadcastDuringDispatch(t *testing.T) {
	for _, narrow := range []bool{false, true} {
		pp := protocol.DefaultParams(7)
		cfg := Config{Params: pp, Seed: 16}
		if narrow {
			// One batch holds every recipient, so node 2 re-broadcasts
			// while the batch is its record's last pending delivery.
			cfg.DelayMin = pp.D
		}
		w := newWorld(t, cfg)
		nodes := make([]*rebroadcaster, pp.N)
		for i := range nodes {
			nodes[i] = &rebroadcaster{done: i != 2}
			w.SetNode(protocol.NodeID(i), nodes[i])
		}
		w.Start()
		w.Scheduler().At(0, func() {
			w.Runtime(0).Broadcast(protocol.Message{Kind: protocol.Support, G: 0, M: "orig"})
		})
		w.RunUntil(10 * simtime.Real(pp.D))
		for i, n := range nodes {
			if len(n.messages) != 2 {
				t.Fatalf("narrow=%v: node %d got %d messages, want 2", narrow, i, len(n.messages))
			}
			got := map[protocol.Value]protocol.NodeID{}
			for _, r := range n.messages {
				got[r.msg.M] = r.from
			}
			if from, ok := got["orig"]; !ok || from != 0 {
				t.Errorf("narrow=%v: node %d: original message missing or mis-stamped: %+v", narrow, i, n.messages)
			}
			if from, ok := got["echo"]; !ok || from != 2 {
				t.Errorf("narrow=%v: node %d: re-broadcast missing or mis-stamped: %+v", narrow, i, n.messages)
			}
		}
		if !recordsHome(w) {
			t.Errorf("narrow=%v: %d records made, %d pooled after drain", narrow, w.records, len(w.recPool))
		}
	}
}

// chatter passes a token around the ring: it re-broadcasts what its
// predecessor broadcast, and now and then answers with a unicast, until
// its budget runs out — a long run of nested sends.
type chatter struct {
	probe
	budget int
}

func (c *chatter) OnMessage(from protocol.NodeID, m protocol.Message) {
	n := c.rt.Params().N
	if m.Kind != protocol.Support || int(from) != (int(c.rt.ID())+n-1)%n || c.budget == 0 {
		return
	}
	c.budget--
	c.rt.Broadcast(m)
	if c.budget%7 == 0 {
		c.rt.Send(from, protocol.Message{Kind: protocol.Ready, G: 0, M: m.M})
	}
}

// TestRecordsDoNotLeak: over a long run of broadcasts, unicasts and an
// injected delivery on both fan-out paths, the record population stays
// bounded by the few sends in flight at once, and once the scheduler
// drains every record is back in the pool.
func TestRecordsDoNotLeak(t *testing.T) {
	for _, narrow := range []bool{false, true} {
		pp := protocol.DefaultParams(7)
		// Hops of at least d/2 keep a few broadcasts in flight at once.
		cfg := Config{Params: pp, Seed: 17, DelayMin: pp.D / 2}
		if narrow {
			cfg.DelayMin = pp.D - 10
		}
		w := newWorld(t, cfg)
		for i := 0; i < pp.N; i++ {
			w.SetNode(protocol.NodeID(i), &chatter{budget: 400})
		}
		w.Start()
		w.InjectDelivery(3, protocol.Message{Kind: protocol.Support, G: 0, M: "token", From: 2}, 0)
		w.RunUntil(simtime.Real(1000 * pp.N * int(pp.D)))
		if w.Scheduler().Pending() != 0 {
			t.Fatalf("narrow=%v: run did not drain: %d pending", narrow, w.Scheduler().Pending())
		}
		total, _ := w.MessageCount()
		if total < int64(pp.N*400) {
			t.Fatalf("narrow=%v: only %d messages sent; the run is too short to show a leak", narrow, total)
		}
		if !recordsHome(w) {
			t.Errorf("narrow=%v: %d records made, %d pooled after drain", narrow, w.records, len(w.recPool))
		}
		if w.records > 2*pp.N {
			t.Errorf("narrow=%v: %d records made for %d sends: records are not being reused", narrow, w.records, total)
		}
	}
}
