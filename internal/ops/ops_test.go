package ops

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ssbyz/internal/core"
	"ssbyz/internal/nettrans"
	"ssbyz/internal/protocol"
	"ssbyz/internal/simtime"
)

// The two read-side wrappers only the tests use: /healthz and /events.

// Health fetches /healthz. The returned ok reports the HTTP verdict
// (200 = stabilized); the body is decoded either way.
func (c *Client) Health() (Health, bool, error) {
	resp, err := c.http.Get(c.base + "/healthz")
	if err != nil {
		return Health{}, false, err
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return Health{}, false, err
	}
	return h, resp.StatusCode == http.StatusOK, nil
}

// Events streams /events until ctx is cancelled or the daemon closes
// the stream (clean EOF on drain), delivering each NDJSON event to fn.
func (c *Client) Events(ctx context.Context, fn func(Event)) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/events", nil)
	if err != nil {
		return err
	}
	// Streams outlive the client's request timeout by design.
	streamer := &http.Client{Transport: c.http.Transport}
	resp, err := streamer.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("ops: /events: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return err
		}
		fn(ev)
	}
	return sc.Err()
}

// stubBackend is a scriptable NodeBackend for control-plane tests.
type stubBackend struct {
	mu          sync.Mutex
	id          protocol.NodeID
	pp          protocol.Params
	now         simtime.Real
	stats       nettrans.Stats
	inc         uint64
	initiated   []string
	initiateErr error
	faults      int
	bumps       map[protocol.NodeID]uint64
	trace       []protocol.TraceEvent
}

func newStub() *stubBackend {
	return &stubBackend{
		pp:    protocol.Params{N: 4, F: 1, D: 20},
		bumps: make(map[protocol.NodeID]uint64),
	}
}

func (b *stubBackend) ID() protocol.NodeID     { return b.id }
func (b *stubBackend) Params() protocol.Params { return b.pp }
func (b *stubBackend) NowTicks() simtime.Real {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.now
}
func (b *stubBackend) Stats() nettrans.Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}
func (b *stubBackend) Incarnation() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.inc
}
func (b *stubBackend) Initiate(slot int, v protocol.Value) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.initiateErr != nil {
		return b.initiateErr
	}
	b.initiated = append(b.initiated, fmt.Sprintf("%d:%s", slot, v))
	return nil
}
func (b *stubBackend) InjectFault(seed int64, severityPermille, inFlight int) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.faults++
	return nil
}
func (b *stubBackend) BumpPeerEpoch(peer protocol.NodeID, incarnation uint64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if int(peer) >= b.pp.N {
		return fmt.Errorf("%w: peer %d out of range", nettrans.ErrEpochSkew, peer)
	}
	if incarnation < b.bumps[peer] {
		return fmt.Errorf("%w: backwards", nettrans.ErrEpochSkew)
	}
	b.bumps[peer] = incarnation
	return nil
}

func (b *stubBackend) TraceEvents() []protocol.TraceEvent {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]protocol.TraceEvent(nil), b.trace...)
}

func (b *stubBackend) set(fn func(*stubBackend)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	fn(b)
}

// TestControlHealthStates walks the health-state machine through its
// three states: boot (re-stabilizing), decide (stabilized), fault
// (re-stabilizing with a Δstb budget), decide again (stabilized), and a
// partition verdict (sends into silence between scrapes) overriding it.
func TestControlHealthStates(t *testing.T) {
	be := newStub()
	ctl := NewControl(be)
	defer ctl.Close()

	if h := ctl.Health(); h.State != StateRestabilizing {
		t.Fatalf("boot state = %q, want %q", h.State, StateRestabilizing)
	}

	ctl.Observe(protocol.TraceEvent{Kind: protocol.EvDecide, Node: 0, RT: 100, G: 1, M: "v"})
	h := ctl.Health()
	if h.State != StateStabilized || h.Decides != 1 {
		t.Fatalf("post-decide health = %+v, want stabilized with 1 decide", h)
	}

	be.set(func(b *stubBackend) { b.now = 200 })
	ctl.MarkFault("fault", nil)
	h = ctl.Health()
	if h.State != StateRestabilizing {
		t.Fatalf("post-fault state = %q, want %q", h.State, StateRestabilizing)
	}
	if h.SinceFault != 0 || h.DeltaStb != int64(be.pp.DeltaStb()) {
		t.Fatalf("fault window = %+v, want since=0 and Δstb=%d", h, be.pp.DeltaStb())
	}

	ctl.Observe(protocol.TraceEvent{Kind: protocol.EvDecide, Node: 0, RT: 300})
	if h = ctl.Health(); h.State != StateStabilized || h.SinceFault != -1 {
		t.Fatalf("recovery health = %+v, want stabilized with no fault window", h)
	}

	// Partition: ≥ partitionSendFloor sends with zero receives since the
	// previous scrape. Bad news wins over the stabilized state.
	be.set(func(b *stubBackend) { b.stats.Sent += partitionSendFloor })
	if h = ctl.Health(); h.State != StatePartitioned {
		t.Fatalf("partition state = %q, want %q", h.State, StatePartitioned)
	}
	// Traffic flows again: back to the underlying stabilized state.
	be.set(func(b *stubBackend) { b.stats.Sent += 2; b.stats.Received += 2 })
	if h = ctl.Health(); h.State != StateStabilized {
		t.Fatalf("post-partition state = %q, want %q", h.State, StateStabilized)
	}
}

// TestControlQuietBootStabilizes pins the boot rule: with no decide, no
// fault, and no traffic, the machine turns stabilized once Δstb passes —
// the theorem's budget with nothing left to converge from.
func TestControlQuietBootStabilizes(t *testing.T) {
	be := newStub()
	ctl := NewControl(be)
	defer ctl.Close()
	if h := ctl.Health(); h.State != StateRestabilizing {
		t.Fatalf("boot state = %q", h.State)
	}
	be.set(func(b *stubBackend) { b.now = simtime.Real(b.pp.DeltaStb()) })
	if h := ctl.Health(); h.State != StateStabilized {
		t.Fatalf("quiet boot past Δstb = %q, want %q", h.State, StateStabilized)
	}
}

// serveStub boots a control-plane server over a loopback listener.
func serveStub(t *testing.T, be *stubBackend) (*Server, *Client) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := Serve(ln, NewControl(be))
	return srv, NewClient(srv.Addr(), nil)
}

// TestServerEndpoints exercises the REST surface end to end over a real
// listener: healthz verdict codes, metrics counters, the trace, initiate
// (including the 409 on IG refusals), fault, bump-epoch (409 on skew),
// and the drain signal.
func TestServerEndpoints(t *testing.T) {
	be := newStub()
	srv, cl := serveStub(t, be)
	defer srv.Shutdown(context.Background())

	if _, ok, err := cl.Health(); err != nil || ok {
		t.Fatalf("boot healthz ok=%v err=%v, want 503", ok, err)
	}
	srv.ctl.Observe(protocol.TraceEvent{Kind: protocol.EvDecide, Node: 0, RT: 50})
	h, ok, err := cl.Health()
	if err != nil || !ok || h.State != StateStabilized {
		t.Fatalf("healthz = %+v ok=%v err=%v, want stabilized 200", h, ok, err)
	}

	// Every counter distinct, so a name mixed up between a Stats field
	// and its /metrics key, or in nettrans.StatsOf, shows as a mismatch.
	full := nettrans.Stats{Sent: 7, Received: 8, LateDrops: 9, AuthDrops: 10,
		EpochDrops: 3, ChaosDrops: 11, DecodeDrops: 12, DupDrops: 13, SeqStale: 21,
		Clamps: 14, RateDeferrals: 15, DupFrames: 16, ReorderHolds: 17,
		CorruptFrames: 18, ReplayFrames: 19, ForgeFrames: 20}
	be.set(func(b *stubBackend) { b.stats = full })
	m, err := cl.Metrics()
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	wantVec := []int64{7, 8, 9, 10, 3, 11, 12, 13, 21, 14, 15, 16, 17, 18, 19, 20} // CounterNames order
	vec := make([]int64, len(nettrans.CounterNames))
	for i, name := range nettrans.CounterNames {
		vec[i] = m.Counters[name]
	}
	if len(m.Counters) != len(wantVec) || !reflect.DeepEqual(vec, wantVec) || nettrans.StatsOf(vec) != full {
		t.Fatalf("metrics counters %v, want %v in CounterNames order, read back as %+v",
			m.Counters, wantVec, nettrans.StatsOf(vec))
	}

	// /trace returns the recorded events exactly, through the wire codec:
	// negative ticks and a non-ASCII value survive the round trip.
	if got, err := cl.TraceEvents(); err != nil || len(got) != 0 {
		t.Fatalf("empty trace = %v, %v", got, err)
	}
	want := []protocol.TraceEvent{
		{Kind: protocol.EvInitiate, Node: 0, RT: -5, Tau: -5, G: 0, M: "s⊥é"},
		{Kind: protocol.EvIAccept, Node: 0, RT: 12, Tau: 11, G: 3, M: "v", K: 2, TauG: -3, RTauG: -4, P: 1},
		{Kind: protocol.EvDecide, Node: 0, RT: 1 << 40, G: 0, M: "世界", TauG: 9, RTauG: 9},
	}
	be.set(func(b *stubBackend) { b.trace = want })
	got, err := cl.TraceEvents()
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("trace = %+v, want %+v", got, want)
	}
	// ?from= is a poller's cursor: only the records past it come back.
	for from, tail := range map[int][]protocol.TraceEvent{2: want[2:], 3: nil, 9: nil} {
		if got, err := cl.TraceFrom(from); err != nil || !reflect.DeepEqual(got, tail) {
			t.Fatalf("trace from %d = %+v, %v; want %+v", from, got, err, tail)
		}
	}

	if err := cl.Initiate(0, "hello"); err != nil {
		t.Fatalf("initiate: %v", err)
	}
	if got := be.initiated; len(got) != 1 || got[0] != "0:hello" {
		t.Fatalf("initiated = %v", got)
	}
	be.set(func(b *stubBackend) { b.initiateErr = errors.New("IG2: too soon") })
	if err := cl.Initiate(0, "again"); err == nil || !strings.Contains(err.Error(), "IG2") {
		t.Fatalf("refused initiate error = %v, want IG2 conflict", err)
	}
	// IG1 and IG3 cross the wire as their core sentinels, which the
	// service pump's re-poll matches.
	for _, sentinel := range []error{core.ErrTooSoon, core.ErrBackoff} {
		be.set(func(b *stubBackend) { b.initiateErr = fmt.Errorf("slot 0: %w", sentinel) })
		if err := cl.Initiate(0, "later"); !errors.Is(err, sentinel) {
			t.Fatalf("refused initiate error = %v, want %v", err, sentinel)
		}
	}

	if err := cl.Fault(9, 1000); err != nil {
		t.Fatalf("fault: %v", err)
	}
	if be.faults != 1 {
		t.Fatalf("faults = %d", be.faults)
	}
	if h, ok, _ := cl.Health(); ok || h.State != StateRestabilizing {
		t.Fatalf("post-fault healthz = %+v ok=%v, want re-stabilizing 503", h, ok)
	}

	if err := cl.BumpEpoch(2, 5); err != nil {
		t.Fatalf("bump-epoch: %v", err)
	}
	if err := cl.BumpEpoch(2, 1); err == nil || !strings.Contains(err.Error(), "epoch skew") {
		t.Fatalf("backwards bump error = %v, want epoch skew conflict", err)
	}
	if be.bumps[2] != 5 {
		t.Fatalf("bumps = %v", be.bumps)
	}

	if err := cl.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	select {
	case reason := <-srv.Done():
		if reason != "drain" {
			t.Fatalf("done reason = %q", reason)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("drain signal never delivered")
	}
}

// TestShutdownOrderingCleanEOF pins the daemon teardown contract under
// -race: an in-flight /events subscriber must see the stream end in a
// clean EOF when Shutdown runs — the bus closes BEFORE the HTTP
// listener, while the connection is still healthy. Reversing the order
// (transports first) surfaces as a read error here.
func TestShutdownOrderingCleanEOF(t *testing.T) {
	be := newStub()
	srv, cl := serveStub(t, be)

	var mu sync.Mutex
	var got []Event
	errCh := make(chan error, 1)
	go func() {
		errCh <- cl.Events(context.Background(), func(ev Event) {
			mu.Lock()
			got = append(got, ev)
			mu.Unlock()
		})
	}()

	// Publish until the subscriber provably receives — then we know the
	// stream is attached and mid-flight when Shutdown fires.
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.ctl.Bus().Publish(Event{Type: "tick", Node: 0})
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("subscriber never attached")
		}
		time.Sleep(5 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("/events ended with %v, want clean EOF", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("/events stream never ended after Shutdown")
	}
}

// TestEventsStream checks the NDJSON shape on the wire: subscribe over
// HTTP, publish typed events, and decode them back field for field.
func TestEventsStream(t *testing.T) {
	be := newStub()
	srv, cl := serveStub(t, be)
	defer srv.Shutdown(context.Background())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	evCh := make(chan Event, 16)
	go func() {
		_ = cl.Events(ctx, func(ev Event) { evCh <- ev })
	}()

	want := Event{Type: "epoch", Node: 3, Tick: 42, Attrs: map[string]string{"peer": "1", "incarnation": "2"}}
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.ctl.Bus().Publish(want)
		select {
		case ev := <-evCh:
			if ev.Type != want.Type || ev.Node != want.Node || ev.Tick != want.Tick ||
				ev.Attrs["peer"] != "1" || ev.Attrs["incarnation"] != "2" {
				t.Fatalf("event = %+v, want %+v", ev, want)
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("published event never arrived")
		}
	}
}

// TestSpecValidation pins the sentinel-matching discipline: every bad
// spec fails with errors.Is(err, nettrans.ErrBadManifest), never a
// string match.
func TestSpecValidation(t *testing.T) {
	good := QuickSpec(4, 2, 100, 7)
	if err := good.Validate(); err != nil {
		t.Fatalf("QuickSpec invalid: %v", err)
	}
	if got := good.ScaleTargets(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("ScaleTargets = %v, want [3]", got)
	}

	cases := []struct {
		name string
		mut  func(*ClusterSpec)
	}{
		{"bad manifest", func(s *ClusterSpec) { s.Manifest.N = 0 }},
		{"negative entries", func(s *ClusterSpec) { s.Entries = -1 }},
		{"descending steps", func(s *ClusterSpec) { s.Steps[1].At = s.Steps[0].At - 1 }},
		{"step after drain", func(s *ClusterSpec) {
			s.Steps = append(s.Steps, Step{Op: OpRoll, Node: 1, At: s.Steps[2].At + 1})
		}},
		{"roll of the General", func(s *ClusterSpec) { s.Steps[1].Node = 0 }},
		{"scale out of range", func(s *ClusterSpec) { s.Steps[0].Node = 9 }},
		{"scale twice", func(s *ClusterSpec) {
			s.Steps = append([]Step{{Op: OpScale, Node: 3, At: 0}}, s.Steps...)
		}},
		{"unknown op", func(s *ClusterSpec) { s.Steps[0].Op = "reboot" }},
		{"fault before its scale", func(s *ClusterSpec) {
			s.Steps = append([]Step{{Op: OpFault, Node: 3, At: 0}}, s.Steps...)
		}},
		{"fault of the General", func(s *ClusterSpec) { s.Steps[1] = Step{Op: OpFault, Node: 0, At: s.Steps[1].At} }},
		{"too many scale targets", func(s *ClusterSpec) {
			s.Steps = append([]Step{{Op: OpScale, Node: 1, At: 0}}, s.Steps...)
		}},
	}
	for _, tc := range cases {
		s := QuickSpec(4, 2, 100, 7)
		tc.mut(&s)
		if err := s.Validate(); !errors.Is(err, nettrans.ErrBadManifest) {
			t.Errorf("%s: err = %v, want ErrBadManifest", tc.name, err)
		}
	}

	if _, err := ParseSpec([]byte("{")); err == nil {
		t.Fatal("ParseSpec of garbage succeeded")
	}
	blob, err := json.Marshal(good)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	back, err := ParseSpec(blob)
	if err != nil {
		t.Fatalf("ParseSpec round trip: %v", err)
	}
	if len(back.Steps) != 3 || back.Steps[1].Op != OpRoll {
		t.Fatalf("round-tripped spec = %+v", back)
	}
}
