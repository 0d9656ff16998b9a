package broadcast

import (
	"testing"

	"ssbyz/internal/protocol"
	"ssbyz/internal/simtime"
)

// fakeRT is a hand-cranked runtime for driving a Session directly.
type fakeRT struct {
	id     protocol.NodeID
	now    simtime.Local
	pp     protocol.Params
	sent   []protocol.Message
	traces []protocol.TraceEvent
}

var _ protocol.Runtime = (*fakeRT)(nil)

func (f *fakeRT) ID() protocol.NodeID     { return f.id }
func (f *fakeRT) Now() simtime.Local      { return f.now }
func (f *fakeRT) Params() protocol.Params { return f.pp }
func (f *fakeRT) Send(_ protocol.NodeID, m protocol.Message) {
	f.sent = append(f.sent, m)
}
func (f *fakeRT) Broadcast(m protocol.Message) { f.sent = append(f.sent, m) }
func (f *fakeRT) After(simtime.Duration, protocol.TimerTag) protocol.TimerID {
	return 0
}
func (f *fakeRT) Cancel(protocol.TimerID)      {}
func (f *fakeRT) Trace(ev protocol.TraceEvent) { f.traces = append(f.traces, ev) }

func (f *fakeRT) countKind(kind protocol.MsgKind) int {
	n := 0
	for _, m := range f.sent {
		if m.Kind == kind {
			n++
		}
	}
	return n
}

type acceptRec struct {
	p protocol.NodeID
	m protocol.Value
	k int
}

// newSession builds a session for General 0 at node 1 (n=7, f=2), with an
// anchor already set at the current local time.
func newSession(anchored bool) (*fakeRT, *Session, *[]acceptRec) {
	rt := &fakeRT{id: 1, pp: protocol.DefaultParams(7), now: 50_000}
	accepts := &[]acceptRec{}
	s := NewSession(rt, 0, func(p protocol.NodeID, m protocol.Value, k int) {
		*accepts = append(*accepts, acceptRec{p, m, k})
	})
	if anchored {
		s.SetAnchor(rt.now)
	}
	return rt, s, accepts
}

// feed delivers one message per sender at the current local time.
func feed(s *Session, kind protocol.MsgKind, p protocol.NodeID, v protocol.Value, k int, senders ...protocol.NodeID) {
	for _, from := range senders {
		s.OnMessage(from, protocol.Message{Kind: kind, G: 0, M: v, P: p, K: k})
	}
}

func TestEchoOnDirectInit(t *testing.T) {
	rt, s, _ := newSession(true)
	// The init must come from p itself (authenticated).
	s.OnMessage(3, protocol.Message{Kind: protocol.Init, G: 0, M: "v", P: 3, K: 1})
	if got := rt.countKind(protocol.Echo); got != 1 {
		t.Errorf("echoes sent = %d, want 1", got)
	}
}

func TestInitFromWrongSenderIgnored(t *testing.T) {
	rt, s, _ := newSession(true)
	s.OnMessage(4, protocol.Message{Kind: protocol.Init, G: 0, M: "v", P: 3, K: 1})
	if got := rt.countKind(protocol.Echo); got != 0 {
		t.Errorf("echoed a spoofed init: %d", got)
	}
}

func TestAcceptViaEchoQuorum(t *testing.T) {
	_, s, accepts := newSession(true)
	feed(s, protocol.Echo, 3, "v", 1, 0, 1, 2, 4, 5) // n−f = 5 echoes
	if len(*accepts) != 1 || (*accepts)[0] != (acceptRec{3, "v", 1}) {
		t.Fatalf("accepts = %v, want [(3,v,1)]", *accepts)
	}
}

func TestNoAcceptBelowQuorum(t *testing.T) {
	_, s, accepts := newSession(true)
	feed(s, protocol.Echo, 3, "v", 1, 0, 1, 2, 4) // only 4 < n−f
	if len(*accepts) != 0 {
		t.Errorf("accepted below quorum: %v", *accepts)
	}
}

func TestInitPrimeOnByzQuorum(t *testing.T) {
	rt, s, _ := newSession(true)
	feed(s, protocol.Echo, 3, "v", 1, 0, 1, 2) // n−2f = 3
	if got := rt.countKind(protocol.InitPrime); got != 1 {
		t.Errorf("init' sent = %d, want 1", got)
	}
}

func TestBroadcastersViaInitPrime(t *testing.T) {
	_, s, _ := newSession(true)
	if s.Broadcasters() != 0 || s.IsBroadcaster(3) {
		t.Fatal("fresh session has broadcasters")
	}
	feed(s, protocol.InitPrime, 3, "v", 1, 0, 1, 2) // n−2f
	if s.Broadcasters() != 1 || !s.IsBroadcaster(3) {
		t.Errorf("broadcasters = %d, want {3}", s.Broadcasters())
	}
}

func TestEchoPrimeRelayAndAccept(t *testing.T) {
	rt, s, accepts := newSession(true)
	// n−2f echo′ → relay own echo′ (Block Z2/Z3).
	feed(s, protocol.EchoPrime, 3, "v", 1, 0, 2, 4)
	if got := rt.countKind(protocol.EchoPrime); got != 1 {
		t.Errorf("echo' relays = %d, want 1", got)
	}
	// n−f echo′ → accept (Z4/Z5).
	feed(s, protocol.EchoPrime, 3, "v", 1, 5, 6)
	if len(*accepts) != 1 {
		t.Errorf("accepts = %v, want one", *accepts)
	}
}

func TestAcceptOnlyOnce(t *testing.T) {
	_, s, accepts := newSession(true)
	feed(s, protocol.Echo, 3, "v", 1, 0, 1, 2, 4, 5)
	feed(s, protocol.EchoPrime, 3, "v", 1, 0, 1, 2, 4, 5)
	if len(*accepts) != 1 {
		t.Errorf("accepted %d times, want 1", len(*accepts))
	}
}

func TestMessagesLoggedBeforeAnchor(t *testing.T) {
	rt, s, accepts := newSession(false)
	feed(s, protocol.Echo, 3, "v", 1, 0, 1, 2, 4, 5)
	if len(*accepts) != 0 || rt.countKind(protocol.InitPrime) != 0 {
		t.Fatal("session acted before the anchor was set")
	}
	// "Nodes log messages until they are able to process them."
	s.SetAnchor(rt.now)
	if len(*accepts) != 1 {
		t.Errorf("logged messages not replayed on SetAnchor: %v", *accepts)
	}
	if !s.Anchored() {
		t.Error("Anchored() false after SetAnchor")
	}
}

func TestPhaseBoundExpiresEcho(t *testing.T) {
	rt, s, _ := newSession(true)
	// Echo for k=1 is allowed only until τG + 2·Φ; move past it.
	rt.now = rt.now.Add(3 * rt.pp.Phi())
	s.OnMessage(3, protocol.Message{Kind: protocol.Init, G: 0, M: "v", P: 3, K: 1})
	if got := rt.countKind(protocol.Echo); got != 0 {
		t.Errorf("echoed after the phase bound: %d", got)
	}
}

func TestBlockZHasNoPhaseBound(t *testing.T) {
	rt, s, accepts := newSession(true)
	rt.now = rt.now.Add(simtime.Duration(2*rt.pp.F+2) * rt.pp.Phi())
	feed(s, protocol.EchoPrime, 3, "v", 1, 0, 1, 2, 4, 5)
	if len(*accepts) != 1 {
		t.Errorf("Block Z accept blocked by a phase bound: %v", *accepts)
	}
}

func TestWrongGeneralIgnored(t *testing.T) {
	_, s, accepts := newSession(true)
	s.OnMessage(2, protocol.Message{Kind: protocol.Echo, G: 5, M: "v", P: 3, K: 1})
	feed(s, protocol.Echo, 3, "v", 1, 0, 1, 4, 5)
	if len(*accepts) != 0 {
		t.Errorf("message for another General counted toward quorum")
	}
}

func TestBroadcastSendsInit(t *testing.T) {
	rt, s, _ := newSession(true)
	s.Broadcast("mine", 2)
	if len(rt.sent) != 1 {
		t.Fatalf("sent %d messages, want 1", len(rt.sent))
	}
	m := rt.sent[0]
	if m.Kind != protocol.Init || m.P != rt.id || m.K != 2 || m.M != "mine" {
		t.Errorf("Broadcast sent %+v", m)
	}
}

func TestDuplicateSendersCountOnce(t *testing.T) {
	_, s, accepts := newSession(true)
	// The same sender echoing five times must not reach the quorum.
	for i := 0; i < 5; i++ {
		s.OnMessage(2, protocol.Message{Kind: protocol.Echo, G: 0, M: "v", P: 3, K: 1})
	}
	if len(*accepts) != 0 {
		t.Error("duplicate senders satisfied the quorum")
	}
}

func TestCleanupDecaysOldMessages(t *testing.T) {
	rt, s, accepts := newSession(true)
	feed(s, protocol.EchoPrime, 3, "v", 1, 0, 1, 2) // 3 of 5 needed
	rt.now = rt.now.Add(simtime.Duration(2*rt.pp.F+4) * rt.pp.Phi())
	s.Cleanup(rt.now)
	feed(s, protocol.EchoPrime, 3, "v", 1, 4, 5) // 2 more, but old 3 gone
	if len(*accepts) != 0 {
		t.Error("decayed messages completed a quorum")
	}
}

func TestReset(t *testing.T) {
	rt, s, accepts := newSession(true)
	feed(s, protocol.Echo, 3, "v", 1, 0, 1, 2, 4, 5)
	s.Reset()
	if s.Anchored() || s.Broadcasters() != 0 {
		t.Error("Reset left anchor or broadcasters")
	}
	// The acceptance dedup SURVIVES the reset: straggler residue of the
	// finished wave must not re-accept (and re-decide) under the next
	// anchor.
	s.SetAnchor(rt.now)
	feed(s, protocol.Echo, 3, "v", 1, 0, 1, 2, 4, 5)
	if len(*accepts) != 1 {
		t.Errorf("accepts after reset = %d, want 1 (dedup persists)", len(*accepts))
	}
}

func TestAcceptDedupDecays(t *testing.T) {
	rt, s, accepts := newSession(true)
	feed(s, protocol.Echo, 3, "v", 1, 0, 1, 2, 4, 5)
	if len(*accepts) != 1 {
		t.Fatal("setup accept failed")
	}
	// Past the decay age a fresh wave for the same triple accepts again
	// (legitimate same-value re-broadcasts are spaced by Δv > (2f+3)Φ).
	rt.now = rt.now.Add(simtime.Duration(2*rt.pp.F+4) * rt.pp.Phi())
	s.Cleanup(rt.now)
	s.Reset()
	s.SetAnchor(rt.now)
	feed(s, protocol.Echo, 3, "v", 1, 0, 1, 2, 4, 5)
	if len(*accepts) != 2 {
		t.Errorf("accepts after decay = %d, want 2", len(*accepts))
	}
}

func TestInjectHooks(t *testing.T) {
	rt, s, _ := newSession(false)
	s.InjectAnchor(rt.now.Add(-42))
	if !s.Anchored() {
		t.Error("InjectAnchor did not anchor")
	}
	s.InjectBroadcaster(5)
	if !s.IsBroadcaster(5) {
		t.Error("InjectBroadcaster did not register")
	}
	s.InjectRecord(protocol.Echo, protocol.Message{G: 0, M: "g", P: 2, K: 1}, 3, rt.now)
	// The injected record participates in evaluation without panicking.
	feed(s, protocol.Echo, 2, "g", 1, 0, 1)
}

func TestTraceCarriesBroadcaster(t *testing.T) {
	rt, s, _ := newSession(true)
	feed(s, protocol.Echo, 4, "v", 1, 0, 1, 2, 5, 6)
	found := false
	for _, ev := range rt.traces {
		if ev.Kind == protocol.EvAccept && ev.P == 4 {
			found = true
		}
	}
	if !found {
		t.Error("EvAccept trace missing the broadcaster P")
	}
}

// TestCleanupKeepsFirstRecordOrder pins the evaluator's order after a
// Cleanup: surviving triples are evaluated in the order their surviving
// records were first taken, not in the order the triples were first seen.
// Triple A is seen first, but the record that made it first decays; its
// surviving init arrived after B's, so B's echo goes out first.
func TestCleanupKeepsFirstRecordOrder(t *testing.T) {
	rt, s, _ := newSession(false)
	t0 := rt.now
	s.OnMessage(5, protocol.Message{Kind: protocol.Echo, G: 0, M: "a", P: 3, K: 1}) // A's first record
	rt.now = t0 + 2
	s.OnMessage(4, protocol.Message{Kind: protocol.Init, G: 0, M: "b", P: 4, K: 1}) // B's first record
	rt.now = t0 + 3
	s.OnMessage(3, protocol.Message{Kind: protocol.Init, G: 0, M: "a", P: 3, K: 1}) // A's later record
	rt.now = t0 + simtime.Local(s.maxAge()) + 1
	s.Cleanup(rt.now) // A's echo decays; both inits survive
	s.SetAnchor(rt.now)
	want := []protocol.Message{
		{Kind: protocol.Echo, G: 0, M: "b", P: 4, K: 1},
		{Kind: protocol.Echo, G: 0, M: "a", P: 3, K: 1},
	}
	if len(rt.sent) != len(want) {
		t.Fatalf("sent %v, want %v", rt.sent, want)
	}
	for i := range want {
		if rt.sent[i] != want[i] {
			t.Fatalf("sent %v, want %v", rt.sent, want)
		}
	}
}
