package ops

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"ssbyz/internal/clock"
	"ssbyz/internal/core"
	"ssbyz/internal/nettrans"
	"ssbyz/internal/protocol"
	"ssbyz/internal/simtime"
)

// handlerTransport is a RoundTripper that serves each request with one
// Server's handler in the calling goroutine: REST with no socket.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	w := httptest.NewRecorder()
	t.h.ServeHTTP(w, r)
	return w.Result(), nil
}

// slotBackend is one daemon's NodeBackend over a slot of a virtual
// cluster: what NetBackend is over a daemon's own NetNode.
type slotBackend struct {
	c    *nettrans.Cluster
	id   protocol.NodeID
	skip int // the slot's trace records from lives before this one
}

func (b *slotBackend) ID() protocol.NodeID     { return b.id }
func (b *slotBackend) Params() protocol.Params { return b.c.Params() }
func (b *slotBackend) NowTicks() simtime.Real  { return b.c.NowTicks() }
func (b *slotBackend) Stats() nettrans.Stats   { return b.c.NodeStats(b.id) }
func (b *slotBackend) Incarnation() uint64     { return b.c.Incarnations()[b.id] }
func (b *slotBackend) BumpPeerEpoch(peer protocol.NodeID, inc uint64) error {
	return b.c.BumpPeerEpoch(peer, inc)
}
func (b *slotBackend) Initiate(slot int, v protocol.Value) error {
	_, _, err := b.c.Initiate(b.id, slot, v)
	return err
}
func (b *slotBackend) InjectFault(seed int64, severityPermille, inFlight int) error {
	return faultSlot(b.c, b.id, seed, severityPermille, inFlight)
}
func (b *slotBackend) TraceEvents() []protocol.TraceEvent {
	return b.c.Recorder().Filter(func(ev protocol.TraceEvent) bool { return ev.Node == b.id })[b.skip:]
}

// virtualLauncher hosts a REST fleet in the test process: each daemon
// is a Server over one slot of a virtual nettrans.Cluster, reached by a
// Client through a handlerTransport — the REST campaign on a clock.Fake
// with no sockets and no processes.
type virtualLauncher struct {
	c       *nettrans.Cluster
	servers map[int]*Server
	clients map[int]*Client
	incs    []uint64
}

func newVirtualLauncher(t *testing.T, spec ClusterSpec, fake *clock.Fake) *virtualLauncher {
	t.Helper()
	c, err := nettrans.NewCluster(nettrans.ClusterConfig{
		Params: spec.Manifest.Params(),
		Tick:   100 * time.Microsecond,
		Clock:  fake,
		Seed:   spec.Seed,
		Absent: spec.ScaleTargets(),
	})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	return &virtualLauncher{c: c, servers: make(map[int]*Server), clients: make(map[int]*Client),
		incs: make([]uint64, spec.Manifest.N)}
}

func (l *virtualLauncher) Spawn(ids ...int) error {
	for _, id := range ids {
		be := &slotBackend{c: l.c, id: protocol.NodeID(id)}
		if !l.c.Running(be.id) {
			be.skip = len(be.TraceEvents())
			if err := l.c.StartNode(be.id); err != nil {
				return err
			}
		}
		l.servers[id] = newServer(NewControl(be))
		l.clients[id] = NewClient(fmt.Sprintf("virtual:%d", id), handlerTransport{l.servers[id].http.Handler})
	}
	return nil
}

func (l *virtualLauncher) WaitExit(id int, _ time.Duration) error {
	srv := l.servers[id]
	delete(l.servers, id)
	delete(l.clients, id)
	select {
	case <-srv.Done():
	default:
		return fmt.Errorf("node %d was not told to exit", id)
	}
	srv.ctl.Close()
	return l.c.StopNode(protocol.NodeID(id))
}

func (l *virtualLauncher) Client(id int) *Client     { return l.clients[id] }
func (l *virtualLauncher) Reincarnate(id int) uint64 { l.incs[id]++; return l.incs[id] }
func (l *virtualLauncher) NowTicks() int64           { return int64(l.c.NowTicks()) }
func (l *virtualLauncher) Close()                    { l.c.Stop() }
func (l *virtualLauncher) Probe(from, to int, inc uint64) error {
	probe := ReplayProbe(l.c.WireEpochID(inc), protocol.NodeID(from), int64(l.c.NowTicks()))
	return l.c.InjectFrame(protocol.NodeID(from), protocol.NodeID(to), probe)
}

// runRESTCampaign runs spec on the REST fleet under a fresh fake clock.
func runRESTCampaign(t *testing.T, spec ClusterSpec) *CampaignReport {
	t.Helper()
	fake := clock.NewFake(time.Time{})
	fleet, err := NewRESTFleet(newVirtualLauncher(t, spec, fake), spec)
	if err != nil {
		t.Fatalf("REST fleet: %v", err)
	}
	rep, err := RunCampaign(CampaignConfig{Spec: spec, Tick: 100 * time.Microsecond, Clock: fake, Fleet: fleet})
	if err != nil {
		t.Fatalf("RunCampaign over REST: %v", err)
	}
	return rep
}

// TestCampaignRESTVirtual runs the canonical campaign through the REST
// fleet — every initiation, trace pull, epoch bump, stop and drain an
// HTTP request to a daemon's handler — on virtual time, and holds it to
// the in-process campaign: the same workload, scale, roll verdicts and
// final health, byte-identical canonical output across two runs.
func TestCampaignRESTVirtual(t *testing.T) {
	want, wantCanon := runVirtualCampaign(t, 7)
	got := runRESTCampaign(t, QuickSpec(4, 2, 250, 7))
	if got.Committed != want.Committed || got.Failed != want.Failed || got.Dropped != want.Dropped {
		t.Fatalf("workload over REST: committed=%d failed=%d dropped=%d, in-process %d/%d/%d",
			got.Committed, got.Failed, got.Dropped, want.Committed, want.Failed, want.Dropped)
	}
	if !reflect.DeepEqual(got.Scales, want.Scales) || !reflect.DeepEqual(got.Rolls, want.Rolls) {
		t.Fatalf("membership over REST: scales %+v rolls %+v, in-process %+v %+v",
			got.Scales, got.Rolls, want.Scales, want.Rolls)
	}
	if !reflect.DeepEqual(got.Health, want.Health) {
		t.Fatalf("final health over REST %v, in-process %v", got.Health, want.Health)
	}
	canon := got.Canonical()
	if !bytes.Equal(canon, runRESTCampaign(t, QuickSpec(4, 2, 250, 7)).Canonical()) {
		t.Fatal("REST campaign not deterministic across two runs")
	}
	if !bytes.Equal(canon, wantCanon) {
		t.Fatalf("REST campaign's canonical bytes differ from the in-process campaign's (%d vs %d bytes)",
			len(canon), len(wantCanon))
	}

	// A roll mid-agreement: the rolled daemon's last trace records reach
	// the report only if the fleet pulls them before its /stop.
	mid := QuickSpec(4, 2, 250, 7)
	mid.Steps[0].At, mid.Steps[1].At = 2*250, 5*250
	in, err := RunCampaign(CampaignConfig{Spec: mid, Clock: clock.NewFake(time.Time{})})
	if err != nil {
		t.Fatalf("in-process campaign: %v", err)
	}
	if !bytes.Equal(runRESTCampaign(t, mid).Canonical(), in.Canonical()) {
		t.Fatal("REST campaign with a roll at 5d differs from the in-process one")
	}
}

// TestCampaignFaultRESTVirtual: an in-situ fault step corrupts node 2 in
// place — through its event loop in process, over POST /fault on the
// REST fleet — and every verdict holds: the node re-stabilizes within
// Δstb and the battery is clean at the other nodes. Both fleets give the
// same canonical bytes, and they differ from the same campaign without
// the fault, so the REST daemon really injected it.
func TestCampaignFaultRESTVirtual(t *testing.T) {
	spec := QuickSpec(4, 2, 250, 7)
	spec.Steps = []Step{{Op: OpFault, Node: 2, At: 10 * 250}, {Op: OpDrain, At: 10 * 250}}
	in, err := RunCampaign(CampaignConfig{Spec: spec, Clock: clock.NewFake(time.Time{})})
	if err != nil {
		t.Fatalf("in-process campaign: %v", err)
	}
	if errs := in.Verdicts(spec); len(errs) > 0 {
		t.Fatalf("fault campaign verdicts failed: %v", errs)
	}
	if len(in.Faults) != 1 || in.Faults[0].Node != 2 || in.Faults[0].RestabTicks < 0 {
		t.Fatalf("faults = %+v", in.Faults)
	}
	t.Logf("fault of node 2 at tick %d re-stabilized in %d ticks (Δstb %d)",
		in.Faults[0].At, in.Faults[0].RestabTicks, in.Params.DeltaStb())
	rest := runRESTCampaign(t, spec)
	if !bytes.Equal(rest.Canonical(), in.Canonical()) {
		t.Fatal("REST fault campaign differs from the in-process one")
	}

	// POST /fault plants the phantom mark the protocol must sweep.
	fake := clock.NewFake(time.Time{})
	l := newVirtualLauncher(t, spec, fake)
	fleet, err := NewRESTFleet(l, spec)
	if err != nil {
		t.Fatalf("REST fleet: %v", err)
	}
	defer fleet.Close()
	if err := fleet.Fault(2, spec.Seed); err != nil {
		t.Fatalf("POST /fault: %v", err)
	}
	marked := false
	l.c.DoWait(2, func(n protocol.Node) { marked, _, _ = n.(*core.Node).Result(3) })
	if !marked {
		t.Fatal("POST /fault left no phantom mark on node 2")
	}
}
