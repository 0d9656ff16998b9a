package initaccept

import (
	"testing"

	"ssbyz/internal/protocol"
	"ssbyz/internal/simtime"
)

// fakeRT is a hand-cranked runtime: the test controls the local clock and
// inspects outgoing broadcasts, timers, and traces.
type fakeRT struct {
	id     protocol.NodeID
	now    simtime.Local
	pp     protocol.Params
	sent   []protocol.Message
	timers []protocol.TimerTag
	traces []protocol.TraceEvent
}

var _ protocol.Runtime = (*fakeRT)(nil)

func (f *fakeRT) ID() protocol.NodeID     { return f.id }
func (f *fakeRT) Now() simtime.Local      { return f.now }
func (f *fakeRT) Params() protocol.Params { return f.pp }
func (f *fakeRT) Send(to protocol.NodeID, m protocol.Message) {
	f.sent = append(f.sent, m)
}
func (f *fakeRT) Broadcast(m protocol.Message) { f.sent = append(f.sent, m) }
func (f *fakeRT) After(dl simtime.Duration, tag protocol.TimerTag) protocol.TimerID {
	f.timers = append(f.timers, tag)
	return protocol.TimerID(len(f.timers))
}
func (f *fakeRT) Cancel(protocol.TimerID)      {}
func (f *fakeRT) Trace(ev protocol.TraceEvent) { f.traces = append(f.traces, ev) }
func (f *fakeRT) sentKinds() []protocol.MsgKind {
	out := make([]protocol.MsgKind, len(f.sent))
	for i, m := range f.sent {
		out[i] = m.Kind
	}
	return out
}
func (f *fakeRT) lastSent() (protocol.Message, bool) {
	if len(f.sent) == 0 {
		return protocol.Message{}, false
	}
	return f.sent[len(f.sent)-1], true
}

// newFake builds an instance for General 0 at node 1, n=7 f=2 d=1000.
func newFake() (*fakeRT, *Instance, *[]protocol.Value) {
	rt := &fakeRT{id: 1, pp: protocol.DefaultParams(7), now: 100_000}
	accepted := &[]protocol.Value{}
	ia := New(rt, 0, func(m protocol.Value, tauG simtime.Local) {
		*accepted = append(*accepted, m)
	})
	return rt, ia, accepted
}

// feed records one message from each given sender at the current time.
func feed(rt *fakeRT, ia *Instance, kind protocol.MsgKind, v protocol.Value, senders ...protocol.NodeID) {
	for _, s := range senders {
		ia.OnMessage(s, protocol.Message{Kind: kind, G: 0, M: v})
	}
}

func TestBlockKSendsSupport(t *testing.T) {
	rt, ia, _ := newFake()
	ia.Invoke("v", rt.now)
	m, ok := rt.lastSent()
	if !ok || m.Kind != protocol.Support || m.M != "v" {
		t.Fatalf("Invoke did not send support: %v", rt.sent)
	}
	// Recording time is τq − d (Line K2).
	rec, ok := ia.iValue("v", rt.now)
	if !ok || rec != rt.now.Add(-rt.pp.D) {
		t.Errorf("i_values[G,m] = (%d,%v), want (%d,true)", rec, ok, rt.now.Add(-rt.pp.D))
	}
}

func TestBlockKRefusesSecondValue(t *testing.T) {
	rt, ia, _ := newFake()
	ia.Invoke("v", rt.now)
	sentBefore := len(rt.sent)
	rt.now = rt.now.Add(2 * rt.pp.D)
	ia.Invoke("w", rt.now) // i_values[G,v] still defined → K1 fails
	for _, m := range rt.sent[sentBefore:] {
		if m.Kind == protocol.Support && m.M == "w" {
			t.Error("support sent for a second concurrent value")
		}
	}
}

func TestBlockKRefusesAfterRecentSupport(t *testing.T) {
	rt, ia, _ := newFake()
	ia.Invoke("v", rt.now)
	// Erase the i_values entry to isolate the "sent support in [τq−d, τq]"
	// condition.
	ia.iValues = map[protocol.Value]simtime.Local{}
	ia.lastGM = map[protocol.Value]*updates{}
	sentBefore := len(rt.sent)
	rt.now = rt.now.Add(rt.pp.D / 2)
	ia.Invoke("w", rt.now)
	for _, m := range rt.sent[sentBefore:] {
		if m.Kind == protocol.Support {
			t.Error("support sent within d of the previous support")
		}
	}
}

func TestBlockLApproveNeedsQuorumWithin2d(t *testing.T) {
	rt, ia, _ := newFake()
	d := rt.pp.D
	// n−2f = 3 supports inside 4d: records the candidate but no approve.
	feed(rt, ia, protocol.Support, "v", 2, 3, 4)
	if _, ok := ia.iValue("v", rt.now); !ok {
		t.Error("L2 did not record a candidate from a byz-quorum of supports")
	}
	for _, k := range rt.sentKinds() {
		if k == protocol.Approve {
			t.Fatal("approve sent before an n−f quorum")
		}
	}
	// Two more supports arrive within 2d: quorum reached → approve.
	rt.now = rt.now.Add(d)
	feed(rt, ia, protocol.Support, "v", 5, 6)
	found := false
	for _, k := range rt.sentKinds() {
		if k == protocol.Approve {
			found = true
		}
	}
	if !found {
		t.Error("approve not sent after n−f supports within 2d")
	}
}

func TestBlockLWindowExcludesStaleSupports(t *testing.T) {
	rt, ia, _ := newFake()
	d := rt.pp.D
	feed(rt, ia, protocol.Support, "v", 2, 3, 4)
	rt.now = rt.now.Add(3 * d) // stale: outside the 2d window for L3
	feed(rt, ia, protocol.Support, "v", 5, 6)
	for _, k := range rt.sentKinds() {
		if k == protocol.Approve {
			t.Error("approve sent although the five supports never shared a 2d window")
		}
	}
}

func TestBlockLRecordingTimeMaxRule(t *testing.T) {
	rt, ia, _ := newFake()
	d := rt.pp.D
	feed(rt, ia, protocol.Support, "v", 2, 3, 4)
	rec1, _ := ia.iValue("v", rt.now)
	// A later, tighter window must only move the recording time forward.
	rt.now = rt.now.Add(d)
	feed(rt, ia, protocol.Support, "v", 5, 6)
	rec2, ok := ia.iValue("v", rt.now)
	if !ok || rt.pp.Sub(rec2, rec1) < 0 {
		t.Errorf("recording time moved backwards: %d -> %d", rec1, rec2)
	}
}

func TestBlockMReadyFlagAndMessage(t *testing.T) {
	rt, ia, _ := newFake()
	feed(rt, ia, protocol.Approve, "v", 2, 3, 4)
	if !ia.readyDefined("v", rt.now) {
		t.Error("ready flag not set by a byz-quorum of approves (M2)")
	}
	for _, k := range rt.sentKinds() {
		if k == protocol.Ready {
			t.Fatal("ready sent before an n−f quorum of approves")
		}
	}
	feed(rt, ia, protocol.Approve, "v", 5, 6)
	found := false
	for _, k := range rt.sentKinds() {
		if k == protocol.Ready {
			found = true
		}
	}
	if !found {
		t.Error("ready not sent after n−f approves within 3d (M4)")
	}
}

func TestBlockNRequiresReadyFlag(t *testing.T) {
	rt, ia, accepted := newFake()
	// n−f ready messages but the local ready flag was never set (M2):
	// transient residue must not drive an I-accept (Claim 4 machinery).
	feed(rt, ia, protocol.Ready, "v", 2, 3, 4, 5, 6)
	if len(*accepted) != 0 {
		t.Error("I-accept fired without the local ready flag")
	}
}

func TestFullWaveIAccepts(t *testing.T) {
	rt, ia, accepted := newFake()
	ia.Invoke("v", rt.now)
	feed(rt, ia, protocol.Support, "v", 2, 3, 4, 5, 6)
	feed(rt, ia, protocol.Approve, "v", 2, 3, 4, 5, 6)
	feed(rt, ia, protocol.Ready, "v", 2, 3, 4, 5, 6)
	if len(*accepted) != 1 || (*accepted)[0] != "v" {
		t.Fatalf("I-accepts = %v, want [v]", *accepted)
	}
	// N4 side effects: i_values cleared, (G,m) messages removed and
	// ignored for 3d, trace emitted.
	if _, ok := ia.iValue("v", rt.now); ok {
		t.Error("i_values not cleared by N4")
	}
	if !ia.ignored("v", rt.now.Add(rt.pp.D)) {
		t.Error("messages not ignored after N4")
	}
	if ia.ignored("v", rt.now.Add(4*rt.pp.D)) {
		t.Error("ignore window outlived 3d")
	}
	foundTrace := false
	for _, ev := range rt.traces {
		if ev.Kind == protocol.EvIAccept && ev.M == "v" {
			foundTrace = true
		}
	}
	if !foundTrace {
		t.Error("no EvIAccept trace")
	}
}

func TestIAcceptOnlyOncePerWave(t *testing.T) {
	rt, ia, accepted := newFake()
	ia.Invoke("v", rt.now)
	feed(rt, ia, protocol.Support, "v", 2, 3, 4, 5, 6)
	feed(rt, ia, protocol.Approve, "v", 2, 3, 4, 5, 6)
	feed(rt, ia, protocol.Ready, "v", 2, 3, 4, 5, 6)
	// Replays right after: inside the 3d ignore window.
	feed(rt, ia, protocol.Ready, "v", 2, 3, 4, 5, 6)
	rt.now = rt.now.Add(rt.pp.D)
	feed(rt, ia, protocol.Ready, "v", 2, 3, 4, 5, 6)
	if len(*accepted) != 1 {
		t.Errorf("I-accepted %d times, want 1", len(*accepted))
	}
}

func TestSeparationLastGBlocksNextInvoke(t *testing.T) {
	rt, ia, accepted := newFake()
	ia.Invoke("v", rt.now)
	feed(rt, ia, protocol.Support, "v", 2, 3, 4, 5, 6)
	feed(rt, ia, protocol.Approve, "v", 2, 3, 4, 5, 6)
	feed(rt, ia, protocol.Ready, "v", 2, 3, 4, 5, 6)
	if len(*accepted) != 1 {
		t.Fatal("setup wave failed")
	}
	// A new value right away: lastq(G) blocks Block K until Δ0−6d.
	rt.now = rt.now.Add(4 * rt.pp.D)
	sentBefore := len(rt.sent)
	ia.Invoke("w", rt.now)
	for _, m := range rt.sent[sentBefore:] {
		if m.Kind == protocol.Support && m.M == "w" {
			t.Error("support for a new value within the lastq(G) separation window")
		}
	}
	// After Δ0 the separation clears.
	rt.now = rt.now.Add(rt.pp.Delta0())
	ia.Cleanup(rt.now)
	ia.Invoke("w", rt.now)
	found := false
	for _, m := range rt.sent[sentBefore:] {
		if m.Kind == protocol.Support && m.M == "w" {
			found = true
		}
	}
	if !found {
		t.Error("support still blocked after Δ0")
	}
}

func TestCleanupDecaysRecords(t *testing.T) {
	rt, ia, _ := newFake()
	feed(rt, ia, protocol.Support, "v", 2, 3)
	if ia.LogLen() == 0 {
		t.Fatal("no records stored")
	}
	rt.now = rt.now.Add(rt.pp.DeltaRmv() + rt.pp.D)
	ia.Cleanup(rt.now)
	if got := ia.LogLen(); got != 0 {
		t.Errorf("records survived Δrmv decay: %d", got)
	}
}

func TestCleanupRemovesFutureGarbage(t *testing.T) {
	rt, ia, _ := newFake()
	ia.InjectRecord(protocol.Support, "ghost", 2, rt.now+simtime.Local(10*rt.pp.DeltaRmv()))
	ia.InjectIValue("ghost", rt.now+simtime.Local(10*rt.pp.DeltaRmv()))
	ia.Cleanup(rt.now)
	if got := ia.LogLen(); got != 0 {
		t.Errorf("future-stamped record survived cleanup: %d", got)
	}
	if _, ok := ia.iValue("ghost", rt.now); ok {
		t.Error("future-stamped i_value survived")
	}
}

func TestResetAcceptStateKeepsRateLimits(t *testing.T) {
	rt, ia, accepted := newFake()
	ia.Invoke("v", rt.now)
	feed(rt, ia, protocol.Support, "v", 2, 3, 4, 5, 6)
	feed(rt, ia, protocol.Approve, "v", 2, 3, 4, 5, 6)
	feed(rt, ia, protocol.Ready, "v", 2, 3, 4, 5, 6)
	if len(*accepted) != 1 {
		t.Fatal("setup wave failed")
	}
	ia.ResetAcceptState()
	if ia.LogLen() != 0 {
		t.Error("ResetAcceptState left records")
	}
	// lastq(G) must survive the reset: the separation property depends on
	// it (clearing it would let a faulty General drive an immediate second
	// wave).
	if !ia.lastG.defined(rt.now, ia.lastGExpiry(), rt.pp) {
		t.Error("ResetAcceptState cleared lastq(G)")
	}
}

func TestGeneralAndLineTimes(t *testing.T) {
	rt, ia, _ := newFake()
	if got := ia.General(); got != 0 {
		t.Errorf("General = %d, want 0", got)
	}
	if _, _, _, okL, okM, okN := ia.LineTimes("v"); okL || okM || okN {
		t.Error("LineTimes non-empty on a fresh instance")
	}
	ia.Invoke("v", rt.now)
	feed(rt, ia, protocol.Support, "v", 2, 3, 4, 5, 6)
	feed(rt, ia, protocol.Approve, "v", 2, 3, 4, 5, 6)
	feed(rt, ia, protocol.Ready, "v", 2, 3, 4, 5, 6)
	if _, _, _, okL, okM, okN := ia.LineTimes("v"); !okL || !okM || !okN {
		t.Errorf("LineTimes after a full wave: L=%v M=%v N=%v, want all true", okL, okM, okN)
	}
}

func TestWrongGeneralIgnored(t *testing.T) {
	rt, ia, _ := newFake()
	ia.OnMessage(2, protocol.Message{Kind: protocol.Support, G: 5, M: "v"})
	if ia.LogLen() != 0 {
		t.Error("message for another General recorded")
	}
	_ = rt
}

func TestTimerTags(t *testing.T) {
	rt, ia, _ := newFake()
	ia.Invoke("v", rt.now)
	// Invoke arms retry timers.
	retries := 0
	for _, tag := range rt.timers {
		if tag.Name == TagRetry {
			retries++
		}
	}
	if retries == 0 {
		t.Error("Invoke armed no retry timers")
	}
	// Dispatching the tags must not panic and re-evaluates pending state.
	for _, tag := range rt.timers {
		ia.OnTimer(tag)
	}
	ia.OnTimer(protocol.TimerTag{Name: TagSweep})
}

// ---- tvar (timed variable) unit tests ----

func TestUpdatesTouchAndDefined(t *testing.T) {
	pp := protocol.DefaultParams(7)
	var u updates
	if u.defined(100, 50, pp) {
		t.Error("zero updates defined")
	}
	if !u.touch(100) {
		t.Error("first touch reported no change")
	}
	if u.touch(100) {
		t.Error("same-time touch reported change")
	}
	if !u.defined(120, 50, pp) {
		t.Error("fresh update not defined")
	}
	if u.defined(200, 50, pp) {
		t.Error("expired update still defined")
	}
}

func TestUpdatesDefinedAtPast(t *testing.T) {
	pp := protocol.DefaultParams(7)
	var u updates
	u.touch(100)
	u.touch(160)
	// At t=150 only the first update existed and it was 50 old.
	if !u.definedAt(150, 60, pp) {
		t.Error("definedAt(150) missed the first update")
	}
	if u.definedAt(150, 40, pp) {
		t.Error("definedAt(150) used an expired update")
	}
}

func TestUpdatesNewestSkipsFuture(t *testing.T) {
	pp := protocol.DefaultParams(7)
	var u updates
	u.inject(500) // future at now=100
	u.touch(90)   // out-of-order times via inject/touch
	got, ok := u.newest(100, pp)
	if !ok || got != 90 {
		t.Errorf("newest = (%d,%v), want (90,true)", got, ok)
	}
}

func TestUpdatesPrune(t *testing.T) {
	pp := protocol.DefaultParams(7)
	var u updates
	u.touch(10)
	u.touch(100)
	u.inject(9999) // future garbage
	u.prune(150, 60, pp)
	if len(u.times) != 1 || u.times[0] != 100 {
		t.Errorf("prune kept %v, want [100]", u.times)
	}
}

// TestCleanupKeepsFirstRecordOrder pins Evaluate's order after a Cleanup:
// values kept alive by records are evaluated in the order their surviving
// records were first taken, not in the order the values were first seen.
// Value a is seen first, but the support that made it first decays; its
// approves were recorded after b's supports, so b's approve goes out
// before a's ready.
func TestCleanupKeepsFirstRecordOrder(t *testing.T) {
	rt, ia, _ := newFake()
	t0 := rt.now
	rt.now = t0 + simtime.Local(rt.pp.DeltaRmv()) + 1
	ia.InjectRecord(protocol.Support, "a", 2, t0) // a's first record
	for s := protocol.NodeID(2); s <= 6; s++ {
		ia.InjectRecord(protocol.Support, "b", s, rt.now-2) // b's first records
	}
	for s := protocol.NodeID(2); s <= 6; s++ {
		ia.InjectRecord(protocol.Approve, "a", s, rt.now-1) // a's later records
	}
	ia.Cleanup(rt.now) // a's support decays
	ia.Evaluate(rt.now)
	want := []protocol.Message{
		{Kind: protocol.Approve, G: 0, M: "b"},
		{Kind: protocol.Ready, G: 0, M: "a"},
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
