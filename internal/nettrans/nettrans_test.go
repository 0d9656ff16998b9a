package nettrans

import (
	"sync"
	"testing"
	"time"

	"ssbyz/internal/check"
	"ssbyz/internal/clock"
	"ssbyz/internal/core"
	"ssbyz/internal/protocol"
	"ssbyz/internal/simnet"
	"ssbyz/internal/simtime"
	"ssbyz/internal/wire"
)

// liveParams sizes the committee for wall-clock runs on a possibly loaded
// host: d = 250 ticks of 100µs = 25ms, generous enough that scheduling
// jitter does not trip the deadline drops even while other test packages
// saturate the machine's cores.
func liveParams(n int) protocol.Params {
	pp := protocol.DefaultParams(n)
	pp.D = 250
	return pp
}

// runAgreement runs one agreement on a fresh cluster of the given
// transport and feeds the collected trace through the full property
// battery: the round trip the subsystem exists for.
func runAgreement(t *testing.T, transport string, n int, conditions []simnet.Condition,
	faulty map[protocol.NodeID]protocol.Node) (*Cluster, Stats) {
	t.Helper()
	pp := liveParams(n)
	c, err := NewCluster(ClusterConfig{
		Params: pp, Transport: transport, Conditions: conditions, Faulty: faulty,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	t.Cleanup(c.Stop)
	t0, _, err := c.Initiate(0, 0, "live-v")
	if err != nil {
		t.Fatalf("Initiate: %v", err)
	}
	if done := c.AwaitDecisions(0, "live-v", 10*time.Second); done != len(c.correct) {
		t.Fatalf("only %d/%d correct nodes decided (stats %+v)", done, len(c.correct), c.Stats())
	}
	stats := c.Stats()
	res := c.Result(simtime.Duration(c.NowTicks()) + 1)
	var violations []check.Violation
	for g := 0; g < pp.N; g++ {
		violations = append(violations, check.All(res, protocol.NodeID(g))...)
	}
	violations = append(violations, check.Validity(res, 0, t0, "live-v")...)
	if len(violations) != 0 {
		t.Fatalf("battery violations over the live trace: %v", violations)
	}
	return c, stats
}

// TestUDPClusterAgreementBatteryClean is the subsystem's core promise: a
// loopback UDP cluster (datagram-per-message, deadline drops, real
// serialization) completes an agreement whose trace passes the full
// property battery.
func TestUDPClusterAgreementBatteryClean(t *testing.T) {
	_, stats := runAgreement(t, TransportUDP, 4, nil, nil)
	if stats.Sent == 0 || stats.Received == 0 {
		t.Errorf("no traffic counted: %+v", stats)
	}
	if stats.AuthDrops != 0 || stats.EpochDrops != 0 || stats.DecodeDrops != 0 {
		t.Errorf("unexpected drops on a clean loopback run: %+v", stats)
	}
}

// TestSevenNodeUDP covers the acceptance-bar committee size (n=7, f=2).
func TestSevenNodeUDP(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-ms live run; skipped in -short")
	}
	runAgreement(t, TransportUDP, 7, nil, nil)
}

// TestTCPClusterAgreementBatteryClean runs the lossless stream baseline.
func TestTCPClusterAgreementBatteryClean(t *testing.T) {
	_, stats := runAgreement(t, TransportTCP, 4, nil, nil)
	if stats.LateDrops != 0 {
		t.Errorf("TCP must not deadline-drop: %+v", stats)
	}
}

// TestChaosConditionsAgainstLiveSockets replays a PR4-style condition
// schedule against real sockets: a jitter window across the whole run
// and a partition window around a crash-faulty node. The battery must
// stay clean (drops only touch the faulty node) and the partition must
// actually eat traffic.
func TestChaosConditionsAgainstLiveSockets(t *testing.T) {
	pp := liveParams(4)
	horizon := simtime.Real(200 * pp.D)
	conditions := []simnet.Condition{
		{Kind: simnet.CondJitter, From: 0, Until: horizon, Jitter: pp.D / 4},
		{Kind: simnet.CondPartition, From: 0, Until: horizon, Nodes: []protocol.NodeID{3}},
	}
	faulty := map[protocol.NodeID]protocol.Node{3: nil}
	_, stats := runAgreement(t, TransportUDP, 4, conditions, faulty)
	if stats.ChaosDrops == 0 {
		t.Errorf("partition around node 3 dropped nothing: %+v", stats)
	}
}

// TestInitiateSameValueTwiceGetsFreshT0 is the regression test for the
// Validity-anchor bug: a General legally re-initiating the SAME value
// (Δv apart, per IG2) must get the second initiation's EvInitiate
// instant as t0, not a stale match on the first one's. It runs on the
// virtual clock: Δv is waited out by an Advance, not by wall time.
func TestInitiateSameValueTwiceGetsFreshT0(t *testing.T) {
	pp := protocol.DefaultParams(4)
	pp.D = 50
	tick := 100 * time.Microsecond
	clk := clock.NewFake(time.Time{})
	c, err := NewCluster(ClusterConfig{Params: pp, Tick: tick, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	const v = protocol.Value("same")
	t0a, _, err := c.Initiate(0, 0, v)
	if err != nil {
		t.Fatalf("first Initiate: %v", err)
	}
	if done := c.AwaitDecisions(0, v, 10*time.Second); done != pp.N {
		t.Fatalf("first agreement: %d/%d decided", done, pp.N)
	}
	// Wait out the same-value spacing IG2 demands, plus margin.
	clk.Advance(time.Duration(pp.DeltaV()+4*pp.D) * tick)
	t0b, _, err := c.Initiate(0, 0, v)
	if err != nil {
		t.Fatalf("second Initiate: %v", err)
	}
	if t0b <= t0a {
		t.Fatalf("second initiation's t0=%d does not postdate the first's t0=%d (stale EvInitiate match)", t0b, t0a)
	}
}

// stubNode records deliveries for white-box receive-path tests.
type stubNode struct {
	mu   sync.Mutex
	msgs []protocol.Message
}

func (s *stubNode) Start(protocol.Runtime)    {}
func (s *stubNode) OnTimer(protocol.TimerTag) {}
func (s *stubNode) OnMessage(_ protocol.NodeID, m protocol.Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.msgs = append(s.msgs, m)
}

func (s *stubNode) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.msgs)
}

// receiverHarness starts one NetNode (id 0) and returns it plus a raw
// socket bound as peer 1, for injecting hand-crafted datagrams.
func receiverHarness(t *testing.T) (*NetNode, *stubNode, *Socket) {
	t.Helper()
	pp := protocol.Params{N: 2, F: 0, D: 100}
	s0, err := ListenSocket(TransportUDP, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s1, err := ListenSocket(TransportUDP, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s1.Close)
	stub := &stubNode{}
	nn, err := StartWith(NodeConfig{
		ID: 0, Params: pp, Transport: TransportUDP,
		Peers: []string{s0.Addr(), s1.Addr()},
		Epoch: time.Now(),
	}, s0, stub)
	if err != nil {
		t.Fatalf("StartWith: %v", err)
	}
	t.Cleanup(nn.Stop)
	return nn, stub, s1
}

// inject writes one raw datagram from the peer-1 socket to the node.
func inject(t *testing.T, nn *NetNode, from *Socket, b []byte) {
	t.Helper()
	ua := nn.trans.(*udpTransport).conn.LocalAddr()
	if _, err := from.udp.WriteTo(b, ua); err != nil {
		t.Fatalf("inject: %v", err)
	}
}

// await polls until pred holds or the deadline passes.
func await(t *testing.T, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for !pred() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func frameFor(nn *NetNode, from protocol.NodeID, sent int64, epoch uint64) []byte {
	payload := wire.AppendMessage(nil, protocol.Message{Kind: protocol.Echo, G: 0, M: "x", K: 1})
	return wire.AppendFrame(nil, wire.Frame{
		Kind: wire.FrameMessage, From: from, Epoch: epoch, Sent: sent, Payload: payload,
	})
}

// TestReceiveAcceptsAuthenticFrame pins the happy path end to end at the
// datagram level.
func TestReceiveAcceptsAuthenticFrame(t *testing.T) {
	nn, stub, s1 := receiverHarness(t)
	inject(t, nn, s1, frameFor(nn, 1, int64(nn.nowTicks()), nn.epochID))
	await(t, "delivery", func() bool { return stub.count() == 1 })
	if s := nn.Stats(); s.Received != 1 {
		t.Errorf("stats: %+v", s)
	}
}

// TestDeadlineDropEnforcesBoundedDelay: a frame sent more than d ago is
// transport loss, never a late delivery (the model's axiom, enforced).
func TestDeadlineDropEnforcesBoundedDelay(t *testing.T) {
	nn, stub, s1 := receiverHarness(t)
	stale := int64(nn.nowTicks()) - 10*int64(nn.cfg.Params.D)
	inject(t, nn, s1, frameFor(nn, 1, stale, nn.epochID))
	await(t, "late drop", func() bool { return nn.Stats().LateDrops == 1 })
	if stub.count() != 0 {
		t.Error("late frame was delivered")
	}
}

// TestAuthDropRejectsForgedSender: a datagram claiming node 0's identity
// from node 1's socket fails the source-address check — the transport
// re-establishes the paper's sender-identification assumption.
func TestAuthDropRejectsForgedSender(t *testing.T) {
	nn, stub, s1 := receiverHarness(t)
	inject(t, nn, s1, frameFor(nn, 0, int64(nn.nowTicks()), nn.epochID)) // claims to be node 0
	await(t, "auth drop", func() bool { return nn.Stats().AuthDrops == 1 })
	if stub.count() != 0 {
		t.Error("forged frame was delivered")
	}
}

// TestEpochDropRejectsStaleIncarnation: frames of a previous cluster on a
// reused port never reach protocol code.
func TestEpochDropRejectsStaleIncarnation(t *testing.T) {
	nn, stub, s1 := receiverHarness(t)
	inject(t, nn, s1, frameFor(nn, 1, int64(nn.nowTicks()), nn.epochID+1))
	await(t, "epoch drop", func() bool { return nn.Stats().EpochDrops == 1 })
	if stub.count() != 0 {
		t.Error("stale-epoch frame was delivered")
	}
}

// TestCorruptDatagramsAreCountedNotFatal: garbage, truncations, and
// trailing bytes increment DecodeDrops and never panic or deliver.
func TestCorruptDatagramsAreCountedNotFatal(t *testing.T) {
	nn, stub, s1 := receiverHarness(t)
	good := frameFor(nn, 1, int64(nn.nowTicks()), nn.epochID)
	inject(t, nn, s1, []byte{0xde, 0xad, 0xbe, 0xef})
	inject(t, nn, s1, good[:len(good)/2])
	inject(t, nn, s1, append(append([]byte{}, good...), 0x00)) // trailing byte
	await(t, "decode drops", func() bool { return nn.Stats().DecodeDrops == 3 })
	if stub.count() != 0 {
		t.Error("corrupt datagram was delivered")
	}
	// The path still works afterwards.
	inject(t, nn, s1, frameFor(nn, 1, int64(nn.nowTicks()), nn.epochID))
	await(t, "post-corruption delivery", func() bool { return stub.count() == 1 })
}

// TestClusterStopIsIdempotentAndTotal mirrors livenet's lifecycle
// contract on the socket transport.
func TestClusterStopIsIdempotentAndTotal(t *testing.T) {
	pp := liveParams(4)
	c, err := NewCluster(ClusterConfig{Params: pp})
	if err != nil {
		t.Fatal(err)
	}
	c.Do(0, func(n protocol.Node) { _ = n.(*core.Node).InitiateAgreement("doomed") })
	time.Sleep(5 * time.Millisecond)
	c.Stop()
	c.Stop()
	before := c.Recorder().Len()
	c.Do(0, func(n protocol.Node) { _ = n.(*core.Node).InitiateAgreement("late") })
	time.Sleep(10 * time.Millisecond)
	if after := c.Recorder().Len(); after != before {
		t.Errorf("events recorded after Stop: %d -> %d", before, after)
	}
}

// TestStartWithValidation covers config rejection.
func TestStartWithValidation(t *testing.T) {
	pp := liveParams(4)
	cases := []struct {
		name string
		cfg  NodeConfig
	}{
		{"bad params", NodeConfig{Params: protocol.Params{N: 3, F: 1, D: 10}, Epoch: time.Now(), Peers: []string{"a", "b", "c"}}},
		{"peer count", NodeConfig{Params: pp, Epoch: time.Now(), Peers: []string{"a"}}},
		{"no epoch", NodeConfig{Params: pp, Peers: []string{"a", "b", "c", "d"}}},
		{"bad id", NodeConfig{ID: 9, Params: pp, Epoch: time.Now(), Peers: []string{"a", "b", "c", "d"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := ListenSocket(TransportUDP, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if _, err := StartWith(tc.cfg, s, &stubNode{}); err == nil {
				t.Error("StartWith accepted an invalid config")
			}
		})
	}
}
