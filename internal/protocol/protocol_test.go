package protocol

import (
	"strings"
	"sync"
	"testing"
	"time"

	"ssbyz/internal/simtime"
)

func TestParamsValidate(t *testing.T) {
	cases := []struct {
		name string
		p    Params
		ok   bool
	}{
		{"n=4 f=1", Params{N: 4, F: 1, D: 1000}, true},
		{"n=7 f=2", Params{N: 7, F: 2, D: 1000}, true},
		{"n=3f", Params{N: 6, F: 2, D: 1000}, false},
		{"zero n", Params{N: 0, F: 0, D: 1000}, false},
		{"negative f", Params{N: 4, F: -1, D: 1000}, false},
		{"zero d", Params{N: 4, F: 1, D: 0}, false},
		{"f=0 allowed", Params{N: 1, F: 0, D: 1}, true},
		{"tiny wrap", Params{N: 4, F: 1, D: 1000, Wrap: 100}, false},
		{"huge wrap", Params{N: 4, F: 1, D: 1000, Wrap: 100_000_000}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.p.Validate(); (err == nil) != tc.ok {
				t.Errorf("Validate = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

func TestMaxFaults(t *testing.T) {
	cases := []struct{ n, want int }{
		{1, 0}, {3, 0}, {4, 1}, {6, 1}, {7, 2}, {10, 3}, {16, 5}, {25, 8}, {31, 10},
	}
	for _, tc := range cases {
		if got := MaxFaults(tc.n); got != tc.want {
			t.Errorf("MaxFaults(%d) = %d, want %d", tc.n, got, tc.want)
		}
		// The optimum must itself validate.
		pp := Params{N: tc.n, F: tc.want, D: 1000}
		if err := pp.Validate(); err != nil {
			t.Errorf("optimal params for n=%d invalid: %v", tc.n, err)
		}
	}
}

// TestDerivedConstants pins every timing constant to the paper's formula
// at d=1000, f=2 (n=7): Φ=8d, Δagr=(2f+1)Φ=40d, Δ0=13d, Δrmv=53d,
// Δv=15d+2Δrmv=121d, Δnode=161d, Δreset=20d+4Δrmv=232d, Δstb=464d.
func TestDerivedConstants(t *testing.T) {
	pp := Params{N: 7, F: 2, D: 1000}
	cases := []struct {
		name string
		got  simtime.Duration
		want simtime.Duration
	}{
		{"τGskew", pp.TauGSkew(), 6000},
		{"Φ", pp.Phi(), 8000},
		{"Δagr", pp.DeltaAgr(), 40000},
		{"Δ0", pp.Delta0(), 13000},
		{"Δrmv", pp.DeltaRmv(), 53000},
		{"Δv", pp.DeltaV(), 121000},
		{"Δnode", pp.DeltaNode(), 161000},
		{"Δreset", pp.DeltaReset(), 232000},
		{"Δstb", pp.DeltaStb(), 464000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.got != tc.want {
				t.Errorf("%s = %d, want %d", tc.name, tc.got, tc.want)
			}
		})
	}
}

func TestQuorums(t *testing.T) {
	pp := Params{N: 7, F: 2, D: 1}
	if got := pp.Quorum(); got != 5 {
		t.Errorf("Quorum = %d, want 5", got)
	}
	if got := pp.ByzQuorum(); got != 3 {
		t.Errorf("ByzQuorum = %d, want 3", got)
	}
	// n−2f ≥ f+1 at the optimum: a byz-quorum always contains a correct node.
	for n := 4; n <= 40; n++ {
		p := DefaultParams(n)
		if p.ByzQuorum() < p.F+1 {
			t.Errorf("n=%d: ByzQuorum %d < f+1 = %d", n, p.ByzQuorum(), p.F+1)
		}
	}
}

func TestParamsWrapHelpers(t *testing.T) {
	pp := Params{N: 4, F: 1, D: 1, Wrap: 1000}
	if got := pp.Sub(10, 990); got != 20 {
		t.Errorf("Sub across wrap = %d, want 20", got)
	}
	if got := pp.Add(990, 20); got != 10 {
		t.Errorf("Add across wrap = %d, want 10", got)
	}
	noWrap := Params{N: 4, F: 1, D: 1}
	if got := noWrap.Sub(10, 990); got != -980 {
		t.Errorf("Sub without wrap = %d, want -980", got)
	}
}

func TestDefaultParams(t *testing.T) {
	pp := DefaultParams(10)
	if pp.N != 10 || pp.F != 3 || pp.D != 1000 {
		t.Errorf("DefaultParams(10) = %+v", pp)
	}
	if err := pp.Validate(); err != nil {
		t.Errorf("DefaultParams invalid: %v", err)
	}
}

func TestMsgKindString(t *testing.T) {
	known := []MsgKind{Initiator, Support, Approve, Ready, Init, Echo, InitPrime, EchoPrime, BaselineRound}
	seen := map[string]bool{}
	for _, k := range known {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "msgkind(") {
			t.Errorf("kind %d has no name", int(k))
		}
		if seen[s] {
			t.Errorf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
	if s := MsgKind(0).String(); !strings.HasPrefix(s, "msgkind(") {
		t.Errorf("zero kind String = %q, want placeholder", s)
	}
}

func TestMessageString(t *testing.T) {
	m := Message{Kind: Support, G: 1, M: "x"}
	if s := m.String(); !strings.Contains(s, "support") || !strings.Contains(s, "G1") {
		t.Errorf("Message.String = %q", s)
	}
	b := Message{Kind: Echo, G: 1, M: "x", P: 3, K: 2}
	if s := b.String(); !strings.Contains(s, "p3") || !strings.Contains(s, "echo") {
		t.Errorf("broadcast Message.String = %q", s)
	}
}

func TestEventKindString(t *testing.T) {
	for _, k := range []EventKind{EvDecide, EvAbort, EvIAccept, EvAccept, EvInvoke, EvInitiate, EvPulse, EvBaselineDecide, EvExpire} {
		if s := k.String(); s == "" || s == "event(?)" {
			t.Errorf("EventKind %d has no name", int(k))
		}
	}
	if s := EventKind(999).String(); s != "event(?)" {
		t.Errorf("unknown EventKind String = %q", s)
	}
}

func TestRecorder(t *testing.T) {
	r := NewRecorder()
	r.Add(TraceEvent{Kind: EvDecide, Node: 1, M: "a"})
	r.Add(TraceEvent{Kind: EvAbort, Node: 2})
	r.Add(TraceEvent{Kind: EvDecide, Node: 3, M: "b"})
	if got := r.Len(); got != 3 {
		t.Errorf("Len = %d, want 3", got)
	}
	if got := len(r.ByKind(EvDecide)); got != 2 {
		t.Errorf("ByKind(EvDecide) = %d, want 2", got)
	}
	evs := r.Events()
	if len(evs) != 3 || evs[0].Node != 1 || evs[2].Node != 3 {
		t.Errorf("Events order broken: %+v", evs)
	}
	// Events returns a copy: mutating it must not corrupt the recorder.
	evs[0].Node = 99
	if r.Events()[0].Node != 1 {
		t.Error("Events exposed internal storage")
	}
	got := r.Filter(func(ev TraceEvent) bool { return ev.M == "b" })
	if len(got) != 1 || got[0].Node != 3 {
		t.Errorf("Filter = %+v", got)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder()
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		g := g
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				r.Add(TraceEvent{Kind: EvDecide, Node: NodeID(g)})
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if got := r.Len(); got != 400 {
		t.Errorf("concurrent Len = %d, want 400", got)
	}
}

// TestRecorderNotify pins the wake-up signal the live runners sleep on: a
// Notify channel fires on the next Add of its own kind only, wakes every
// waiter holding it, and Add never blocks on it — nobody reading, or
// many writers at once (run it under -race).
func TestRecorderNotify(t *testing.T) {
	fired := func(ch <-chan struct{}) bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
	r := NewRecorder()
	decided := r.Notify(EvDecide)
	if again := r.Notify(EvDecide); again != decided {
		t.Fatal("two Notify calls before any Add returned different channels")
	}
	r.Add(TraceEvent{Kind: EvInitiate})
	r.Add(TraceEvent{Kind: EvAbort})
	if fired(decided) {
		t.Fatal("EvDecide signal fired on other kinds")
	}
	r.Add(TraceEvent{Kind: EvDecide})
	if !fired(decided) {
		t.Fatal("EvDecide signal did not fire on an EvDecide")
	}
	next := r.Notify(EvDecide)
	if fired(next) {
		t.Fatal("the signal taken after an Add fired without a new one")
	}
	if r.Notify(EventKind(-1)) != nil {
		t.Error("out-of-range kind returned a live channel")
	}

	// Waiters and writers concurrently: every waiter wakes, and the
	// writers finish although nobody drains anything.
	const waiters, writers, adds = 4, 4, 200
	var wg, ready sync.WaitGroup
	start := make(chan struct{})
	before, total := r.KindLen(EvDecide), r.Len()
	for w := 0; w < waiters; w++ {
		wg.Add(1)
		ready.Add(1)
		go func() {
			defer wg.Done()
			ch := r.Notify(EvDecide)
			ready.Done()
			<-ch
			if r.KindLen(EvDecide) <= before {
				t.Error("waiter woke before an EvDecide was recorded")
			}
		}()
	}
	ready.Wait()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < adds; i++ {
				kind := EvDecide
				if i%2 == 0 {
					kind = EvInitiate
				}
				r.Add(TraceEvent{Kind: kind, Node: NodeID(w)})
			}
		}(w)
	}
	close(start)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Add blocked or a waiter never woke")
	}
	if got, want := r.Len(), total+writers*adds; got != want {
		t.Errorf("Len = %d, want %d", got, want)
	}
}
