package ops

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"ssbyz/internal/clock"
	"ssbyz/internal/indexed"
	"ssbyz/internal/nettrans"
	"ssbyz/internal/protocol"
	"ssbyz/internal/service"
	"ssbyz/internal/sim"
	"ssbyz/internal/simtime"
	"ssbyz/internal/wire"
)

// CampaignConfig runs a ClusterSpec as an in-process campaign: an
// n-node nettrans cluster (loopback sockets on the wall path, the
// deterministic in-memory wire under a *clock.Fake), the service pump
// committing replicated-log entries at General 0 throughout, and the
// spec's membership schedule executed at quiescent points. The virtual
// form is experiment V4; the wall form over real UDP is the L4 smoke.
type CampaignConfig struct {
	Spec      ClusterSpec
	Transport string        // nettrans.TransportUDP (default) or TCP
	Tick      time.Duration // wall tick length (default 100µs)
	// Clock switches to deterministic virtual time when it is a
	// *clock.Fake (nil = wall clock).
	Clock clock.Clock
	// LegacyWire disables frame coalescing (one datagram per frame), for
	// the wire differential suite. Reports must be identical either way.
	LegacyWire bool
}

// ScaleReport is one executed scale-up step.
type ScaleReport struct {
	Node int   `json:"node"`
	At   int64 `json:"at"` // tick the slot booted
}

// RollReport is one executed rolling replacement and its verdicts.
type RollReport struct {
	Node        int    `json:"node"`
	At          int64  `json:"at"` // tick the roll executed
	Incarnation uint64 `json:"incarnation"`
	// RestabTicks is the observed re-stabilization time: first decide by
	// the replacement after the roll, in ticks (-1 if never observed).
	RestabTicks int64 `json:"restab_ticks"`
	// WithinDeltaStb is the paper's contract: RestabTicks ≤ Δstb = 2Δreset.
	WithinDeltaStb bool `json:"within_delta_stb"`
	// EpochDropPeers counts peers that rejected old-incarnation frames
	// (the replay probe) after the roll — the proof the old life is dead.
	EpochDropPeers int `json:"epoch_drop_peers"`
}

// CampaignReport is a finished campaign.
type CampaignReport struct {
	Params    protocol.Params
	Committed int // replicated-log entries committed at General 0
	Failed    int
	Dropped   int
	Scales    []ScaleReport
	Rolls     []RollReport
	// Health is every slot's final health state, indexed by node id,
	// derived by replaying the canonical (sorted) trace through each
	// node's Control — deterministic under virtual time.
	Health []State
	// EventCounts tallies the ops events the replay published, by type.
	EventCounts map[string]int
	Stats       nettrans.Stats
	Horizon     int64 // the campaign's extent in ticks
	// Result is the shaped trace, for callers that want the battery.
	Result *sim.Result
}

// clusterBackend adapts one cluster slot to the NodeBackend surface for
// the end-of-run health replay.
type clusterBackend struct {
	c  *nettrans.Cluster
	id protocol.NodeID
}

func (b *clusterBackend) ID() protocol.NodeID     { return b.id }
func (b *clusterBackend) Params() protocol.Params { return b.c.Params() }
func (b *clusterBackend) NowTicks() simtime.Real  { return b.c.NowTicks() }
func (b *clusterBackend) Stats() nettrans.Stats   { return b.c.NodeStats(b.id) }
func (b *clusterBackend) Incarnation() uint64     { return b.c.Incarnations()[b.id] }
func (b *clusterBackend) BumpPeerEpoch(peer protocol.NodeID, inc uint64) error {
	return b.c.BumpPeerEpoch(peer, inc)
}
func (b *clusterBackend) Initiate(slot int, v protocol.Value) error {
	_, _, err := b.c.Initiate(b.id, slot, v)
	return err
}
func (b *clusterBackend) InjectFault(seed int64, severityPermille, inFlight int) error {
	return fmt.Errorf("ops: campaign backends do not inject faults")
}

// pendingRoll tracks one executed roll until its verdicts land.
type pendingRoll struct {
	report     *RollReport
	rollTick   simtime.Real
	dropsAt    map[protocol.NodeID]int64 // EpochDrops per peer before the probe
	restabbed  bool
	probeJudge bool
}

// RunCampaign executes the spec end to end and reports. An error means
// the campaign could not run or timed out; protocol-level verdicts
// (re-stabilization, replay rejection) are in the report for the caller
// to judge.
func RunCampaign(cfg CampaignConfig) (*CampaignReport, error) {
	spec := cfg.Spec
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	pp := spec.Manifest.Params()
	tick := cfg.Tick
	if tick <= 0 {
		tick = 100 * time.Microsecond
	}
	sessions := spec.Sessions
	if sessions < 1 {
		sessions = 1
	}
	entries := spec.Entries
	if entries <= 0 {
		entries = 8
	}

	ccfg := nettrans.ClusterConfig{
		Params:    pp,
		Tick:      tick,
		Transport: cfg.Transport,
		Clock:     cfg.Clock,
		Seed:      spec.Seed,
		Absent:    spec.ScaleTargets(),

		LegacyDatagramPerFrame: cfg.LegacyWire,
	}
	if sessions > 1 {
		ccfg.NewNode = func() protocol.Node { return indexed.NewNode(sessions) }
	}
	c, err := nettrans.NewCluster(ccfg)
	if err != nil {
		return nil, err
	}
	defer c.Stop()

	pump := service.NewPump(service.PumpConfig{
		Params:   pp,
		Backend:  service.ClusterBackend{C: c},
		Recorder: c.Recorder(),
		Sessions: sessions,
		// The campaign judges the roll under a fully committed workload, so
		// nothing sheds: the queue holds the whole arrival schedule.
		QueueLimit: entries,
		Loads: []service.Workload{{
			G:        0,
			Arrivals: service.PoissonArrivals(spec.Seed+1, simtime.Real(2*pp.D), 3*pp.D, entries),
		}},
	})

	report := &CampaignReport{Params: pp, EventCounts: make(map[string]int)}
	steps := append([]Step(nil), spec.Steps...)
	var pending []*pendingRoll
	drained := false

	// The budget: the whole schedule, plus Δstb for the last roll to
	// re-stabilize, plus agreement time for the tail of the workload.
	var lastAt int64
	for _, st := range steps {
		if st.At > lastAt {
			lastAt = st.At
		}
	}
	horizon := simtime.Duration(lastAt) + pp.DeltaStb() + 2*pp.DeltaAgr() + 40*pp.D
	fake, _ := cfg.Clock.(*clock.Fake)
	quarter := time.Duration(pp.D) / 4 * tick
	deadline := time.Now().Add(time.Duration(horizon)*tick + 60*time.Second)

	execute := func(st Step, now simtime.Real) error {
		switch st.Op {
		case OpScale:
			if err := c.StartNode(protocol.NodeID(st.Node)); err != nil {
				return fmt.Errorf("ops: scale step: %w", err)
			}
			report.Scales = append(report.Scales, ScaleReport{Node: st.Node, At: int64(now)})
		case OpRoll:
			id := protocol.NodeID(st.Node)
			oldInc := c.Incarnations()[id]
			drops := make(map[protocol.NodeID]int64)
			for _, peer := range c.Correct() {
				if peer != id {
					drops[peer] = c.NodeStats(peer).EpochDrops
				}
			}
			inc, err := c.RollNode(id)
			if err != nil {
				return fmt.Errorf("ops: roll step: %w", err)
			}
			// The replay probe: one frame stamped with the node's previous
			// incarnation, offered to every peer. The acceptance pipeline
			// must reject it at its first step (EpochDrops).
			probe := replayProbe(c, id, oldInc, now)
			for peer := range drops {
				if err := c.InjectFrame(id, peer, probe); err != nil {
					return fmt.Errorf("ops: replay probe to %d: %w", peer, err)
				}
			}
			rr := &RollReport{Node: st.Node, At: int64(now), Incarnation: inc, RestabTicks: -1}
			report.Rolls = append(report.Rolls, *rr)
			pending = append(pending, &pendingRoll{
				report:   &report.Rolls[len(report.Rolls)-1],
				rollTick: now,
				dropsAt:  drops,
			})
		}
		return nil
	}

	// settle tracks the post-drain flush: decide returns trail the last
	// commit by up to 2d, and the trace freezes only after them.
	for {
		now := c.NowTicks()
		// Membership steps execute at quiescent points: under virtual time
		// the fake clock has fully settled between advances, so the
		// schedule is exact and the campaign deterministic.
		for len(steps) > 0 && simtime.Real(steps[0].At) <= now && steps[0].Op != OpDrain {
			st := steps[0]
			steps = steps[1:]
			if err := execute(st, now); err != nil {
				return nil, err
			}
		}
		pump.Step(now)
		judgeRolls(c, pending, pp)

		// The drain gate: schedule exhausted up to the drain, workload
		// committed, every roll re-stabilized (or its budget blown — the
		// report carries the verdict either way).
		if len(steps) > 0 && steps[0].Op == OpDrain && simtime.Real(steps[0].At) <= now &&
			pump.Idle() && rollsSettled(pending, now, pp) {
			steps = steps[1:]
			drained = true
		}
		if drained && len(steps) == 0 {
			break
		}
		if simtime.Duration(now) >= horizon {
			return nil, fmt.Errorf("ops: campaign did not drain within %d ticks (pump idle=%v, %d steps left)",
				horizon, pump.Idle(), len(steps))
		}
		if fake != nil {
			fake.Advance(quarter)
		} else {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("ops: campaign wall deadline exceeded (%d steps left)", len(steps))
			}
			time.Sleep(quarter)
		}
	}
	// Flush the decide-return tail before freezing the trace (the
	// General's own return leads peers by ≤ 2d).
	if fake != nil {
		fake.Advance(2 * time.Duration(pp.D) * tick)
	} else {
		time.Sleep(2 * time.Duration(pp.D) * tick)
	}
	judgeRolls(c, pending, pp)

	report.Horizon = int64(c.NowTicks())
	report.Stats = c.Stats()
	for _, lr := range pump.Results() {
		report.Committed += len(lr.Committed)
		report.Dropped += lr.Dropped
		report.Failed += lr.Failed
	}
	report.Result = c.Result(simtime.Duration(report.Horizon) + 1)
	replayHealth(c, report)
	return report, nil
}

// Canonical renders the report to bytes that must be identical for two
// runs of the same spec and seed under virtual time: the JSON report
// (minus the trace pointer) followed by every trace event, sorted
// (RT, node, kind) and wire-encoded. V4's determinism gate compares
// these byte strings across runs and worker counts.
func (r *CampaignReport) Canonical() []byte {
	events := r.Result.Rec.Events()
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].RT != events[j].RT {
			return events[i].RT < events[j].RT
		}
		if events[i].Node != events[j].Node {
			return events[i].Node < events[j].Node
		}
		return events[i].Kind < events[j].Kind
	})
	shallow := *r
	shallow.Result = nil
	blob, err := json.Marshal(shallow)
	if err != nil {
		blob = []byte(err.Error())
	}
	for _, ev := range events {
		blob = wire.AppendTraceEvent(blob, ev)
	}
	return blob
}

// judgeRolls updates pending rolls against the trace and counters:
// re-stabilization is the first decide by the replacement after the
// roll (order-insensitive recorder query, so virtual runs stay
// deterministic), replay rejection is an EpochDrops increase at every
// probed peer.
func judgeRolls(c *nettrans.Cluster, pending []*pendingRoll, pp protocol.Params) {
	for _, pr := range pending {
		if !pr.restabbed {
			first := simtime.Real(-1)
			c.Recorder().ForEachKind(func(ev protocol.TraceEvent) {
				if ev.Node == protocol.NodeID(pr.report.Node) && ev.RT >= pr.rollTick &&
					(first < 0 || ev.RT < first) {
					first = ev.RT
				}
			}, protocol.EvDecide)
			if first >= 0 {
				pr.restabbed = true
				pr.report.RestabTicks = int64(first - pr.rollTick)
				pr.report.WithinDeltaStb = simtime.Duration(pr.report.RestabTicks) <= pp.DeltaStb()
			}
		}
		peers := 0
		for peer, before := range pr.dropsAt {
			if c.NodeStats(peer).EpochDrops > before {
				peers++
			}
		}
		pr.report.EpochDropPeers = peers
	}
}

// rollsSettled reports whether every roll has either re-stabilized or
// exhausted its Δstb budget (the report then carries the failure).
func rollsSettled(pending []*pendingRoll, now simtime.Real, pp protocol.Params) bool {
	for _, pr := range pending {
		if !pr.restabbed && simtime.Duration(now-pr.rollTick) <= pp.DeltaStb() {
			return false
		}
	}
	return true
}

// replayProbe forges one frame from node id's PREVIOUS incarnation.
func replayProbe(c *nettrans.Cluster, id protocol.NodeID, oldInc uint64, now simtime.Real) []byte {
	return ReplayProbe(c.WireEpochID(oldInc), id, int64(now))
}

// ReplayProbe forges a protocol frame stamped with the given wire epoch
// id — an old incarnation of node from. Orchestrators offer it to each
// peer after a roll; the acceptance pipeline must reject it at its
// first step (epoch_drops), proving the old life is dead.
func ReplayProbe(epochID uint64, from protocol.NodeID, sent int64) []byte {
	return wire.AppendFrame(nil, wire.Frame{
		Kind:  wire.FrameMessage,
		From:  from,
		Epoch: epochID,
		Sent:  sent,
		Payload: wire.AppendMessage(nil, protocol.Message{
			Kind: protocol.Initiator, G: from, From: from, M: "stale",
		}),
	})
}

// replayHealth replays the campaign's canonical trace through one
// Control per slot and records the final health states and event
// tallies. The trace is sorted (RT, then node) first, so the replay —
// and with it the report — is independent of recorder arrival order.
func replayHealth(c *nettrans.Cluster, report *CampaignReport) {
	events := c.Recorder().Events()
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].RT != events[j].RT {
			return events[i].RT < events[j].RT
		}
		return events[i].Node < events[j].Node
	})
	n := report.Params.N
	report.Health = make([]State, n)
	controls := make([]*Control, n)
	chans := make([]<-chan Event, n)
	for i := 0; i < n; i++ {
		controls[i] = NewControl(&clusterBackend{c: c, id: protocol.NodeID(i)})
		ch, _ := controls[i].Bus().Subscribe(2*len(events) + 64)
		chans[i] = ch
	}
	for _, ev := range events {
		if int(ev.Node) < n {
			controls[ev.Node].Observe(ev)
		}
	}
	for i := 0; i < n; i++ {
		report.Health[i] = controls[i].Health().State
		controls[i].Close()
		for ev := range chans[i] {
			report.EventCounts[ev.Type]++
		}
	}
}
