package ops

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"ssbyz/internal/clock"
	"ssbyz/internal/core"
	"ssbyz/internal/indexed"
	"ssbyz/internal/nettrans"
	"ssbyz/internal/protocol"
	"ssbyz/internal/service"
	"ssbyz/internal/sim"
	"ssbyz/internal/simtime"
	"ssbyz/internal/wire"
)

// CampaignConfig runs a ClusterSpec as a campaign: the service pump
// committing replicated-log entries at General 0 throughout, and the
// spec's membership schedule executed at quiescent points, on an
// in-process nettrans cluster (loopback sockets on the wall path, the
// deterministic in-memory wire under a *clock.Fake) unless Fleet is set.
// The virtual form is experiment V4.
type CampaignConfig struct {
	Spec      ClusterSpec
	Transport string        // nettrans.TransportUDP (default) or TCP
	Tick      time.Duration // wall tick length (default 100µs)
	// Clock switches to deterministic virtual time when it is a
	// *clock.Fake (nil = wall clock).
	Clock clock.Clock
	// Fleet, when set, is the booted fleet to drive instead of an
	// in-process cluster (NewRESTFleet); RunCampaign closes it. It ticks
	// at Tick, on Clock when that is a *clock.Fake.
	Fleet CampaignFleet
}

// CampaignFleet is what a campaign drives, from one goroutine: the
// in-process cluster on either clock, or daemons over REST. Its
// Initiate (service.Backend) returns IG1/IG3 refusals as core.ErrTooSoon
// and core.ErrBackoff, for the pump to re-poll. Roll stops a running
// slot, raises its incarnation on every running peer, reboots it, and
// offers each peer one frame from the old incarnation (the replay
// probe); it returns the new incarnation. Fault corrupts a running
// slot's protocol state in place at severity faultSeverity.
type CampaignFleet interface {
	service.Backend
	Now() simtime.Real                                // fleet clock, ticks since the epoch
	Running() []protocol.NodeID                       // running slots, ascending
	Start(id protocol.NodeID) error                   // boot a slot held back (scale-up)
	Roll(id protocol.NodeID) (uint64, error)          // replace a running slot
	Fault(id protocol.NodeID, seed int64) error       // corrupt a running slot in place
	Stats(id protocol.NodeID) (nettrans.Stats, error) // one running slot's counters
	Recorder() *protocol.Recorder                     // the trace, as far as Sync collected it
	Sync() error                                      // collect every running slot's new trace
	Close() error                                     // stop every slot; the drain verdict
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

// faultSeverity is an OpFault's corruption severity in permille: every
// corruption class fires.
const faultSeverity = 1000

// FaultReport is one executed in-situ fault and its verdict.
type FaultReport struct {
	Node int   `json:"node"`
	At   int64 `json:"at"` // tick the fault was injected
	// RestabTicks is the observed re-stabilization time, as for a roll:
	// first decide by the node after the fault (-1 if never observed).
	RestabTicks    int64 `json:"restab_ticks"`
	WithinDeltaStb bool  `json:"within_delta_stb"`
}

// CampaignReport is a finished campaign.
type CampaignReport struct {
	Params    protocol.Params
	Committed int // replicated-log entries committed at General 0
	Failed    int
	Dropped   int
	// Backoffs counts the IG3 back-off episodes the pump waited out at
	// General 0 (backoffCounter): a finding, not a verdict.
	Backoffs int
	Scales   []ScaleReport
	Rolls    []RollReport
	Faults   []FaultReport `json:",omitempty"`
	// Health is every slot's final health state, indexed by node id,
	// derived by replaying the canonical (sorted) trace through each
	// node's Control — deterministic under virtual time.
	Health []State
	// EventCounts tallies the ops events the replay published, by type.
	EventCounts map[string]int
	Stats       nettrans.Stats
	Horizon     int64 // the campaign's extent in ticks
	// Result is the shaped trace; its correct set is the spec's Steady
	// nodes, the ones the battery judges.
	Result *sim.Result `json:"-"`
	// Logs are the pump's replicated logs, the battery's other input.
	Logs []*service.LogResult `json:"-"`
}

// clusterFleet is the in-process CampaignFleet over a nettrans.Cluster.
type clusterFleet struct{ service.ClusterBackend }

// Between steps no slot is down, so the correct slots are the running ones.
func (f clusterFleet) Running() []protocol.NodeID     { return f.C.Correct() }
func (f clusterFleet) Now() simtime.Real              { return f.C.NowTicks() }
func (f clusterFleet) Start(id protocol.NodeID) error { return f.C.StartNode(id) }
func (f clusterFleet) Stats(id protocol.NodeID) (nettrans.Stats, error) {
	return f.C.NodeStats(id), nil
}
func (f clusterFleet) Fault(id protocol.NodeID, seed int64) error {
	return faultSlot(f.C, id, seed, faultSeverity, 0)
}
func (f clusterFleet) Recorder() *protocol.Recorder { return f.C.Recorder() }
func (f clusterFleet) Sync() error                  { return nil } // the recorder is shared
func (f clusterFleet) Close() error                 { f.C.Stop(); return nil }

func (f clusterFleet) Roll(id protocol.NodeID) (uint64, error) {
	oldInc := f.C.Incarnations()[id]
	inc, err := f.C.RollNode(id)
	if err != nil {
		return 0, err
	}
	probe := ReplayProbe(f.C.WireEpochID(oldInc), id, int64(f.C.NowTicks()))
	for _, peer := range f.Running() {
		if peer != id {
			if err := f.C.InjectFrame(id, peer, probe); err != nil {
				return 0, fmt.Errorf("replay probe to %d: %w", peer, err)
			}
		}
	}
	return inc, nil
}

// backoffCounter wraps the campaign's Backend (one General, node 0)
// and counts IG3 back-off episodes: the first core.ErrBackoff after an
// accepted initiation opens one.
type backoffCounter struct {
	service.Backend
	armed    bool
	episodes int
}

func (b *backoffCounter) Initiate(g protocol.NodeID, slots []int, v protocol.Value) (int, protocol.Value, error) {
	slot, wire, err := b.Backend.Initiate(g, slots, v)
	switch {
	case err == nil:
		b.armed = true
	case b.armed && errors.Is(err, core.ErrBackoff):
		b.armed = false
		b.episodes++
	}
	return slot, wire, err
}

// RunCampaign executes the spec end to end and reports. An error means
// the campaign could not run, timed out, or its fleet did not drain
// cleanly; protocol-level verdicts (re-stabilization, replay rejection)
// are in the report for the caller to judge.
func RunCampaign(cfg CampaignConfig) (*CampaignReport, error) {
	spec := cfg.Spec
	if cfg.Tick <= 0 {
		cfg.Tick = 100 * time.Microsecond
	}
	fleet := cfg.Fleet
	if fleet == nil {
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		ccfg := nettrans.ClusterConfig{
			Params:    spec.Manifest.Params(),
			Tick:      cfg.Tick,
			Transport: cfg.Transport,
			Clock:     cfg.Clock,
			Seed:      spec.Seed,
			Absent:    spec.ScaleTargets(),
		}
		if spec.Sessions > 1 {
			ccfg.NewNode = func() protocol.Node { return indexed.NewNode(spec.Sessions) }
		}
		c, err := nettrans.NewCluster(ccfg)
		if err != nil {
			return nil, err
		}
		fleet = clusterFleet{service.ClusterBackend{C: c}}
	}
	report, err := runCampaign(cfg, fleet)
	if cerr := fleet.Close(); cerr != nil && err == nil {
		report, err = nil, fmt.Errorf("ops: fleet drain: %w", cerr)
	}
	return report, err
}

func runCampaign(cfg CampaignConfig, fleet CampaignFleet) (*CampaignReport, error) {
	spec := cfg.Spec
	pp := spec.Manifest.Params()
	entries := spec.Entries
	if entries <= 0 {
		entries = 8
	}
	backend := &backoffCounter{Backend: fleet}
	pump := service.NewPump(service.PumpConfig{
		Params:   pp,
		Backend:  backend,
		Recorder: fleet.Recorder(),
		Sessions: spec.Sessions,
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
	var drops []map[protocol.NodeID]int64 // per roll: EpochDrops before the probe, per peer yet to reject it

	// The budget: the whole schedule, plus Δstb for the last roll to
	// re-stabilize, plus agreement time for the tail of the workload.
	// Steps ascend by At, so the last one ends the schedule.
	horizon := pp.DeltaStb() + 2*pp.DeltaAgr() + 40*pp.D
	if len(steps) > 0 {
		horizon += simtime.Duration(steps[len(steps)-1].At)
	}
	deadline := time.Now().Add(time.Duration(horizon)*cfg.Tick + 60*time.Second)
	fake, _ := cfg.Clock.(*clock.Fake)
	wait := func(ticks simtime.Duration) {
		if fake != nil {
			fake.Advance(time.Duration(ticks) * cfg.Tick)
		} else {
			time.Sleep(time.Duration(ticks) * cfg.Tick)
		}
	}

	execute := func(st Step, now simtime.Real) error {
		id := protocol.NodeID(st.Node)
		switch st.Op {
		case OpScale:
			if err := fleet.Start(id); err != nil {
				return fmt.Errorf("ops: scale step: %w", err)
			}
			report.Scales = append(report.Scales, ScaleReport{Node: st.Node, At: int64(now)})
		case OpRoll:
			before := make(map[protocol.NodeID]int64)
			for _, peer := range fleet.Running() {
				if peer != id {
					st, err := fleet.Stats(peer)
					if err != nil {
						return fmt.Errorf("ops: roll step: %w", err)
					}
					before[peer] = st.EpochDrops
				}
			}
			inc, err := fleet.Roll(id)
			if err != nil {
				return fmt.Errorf("ops: roll step: %w", err)
			}
			report.Rolls = append(report.Rolls, RollReport{Node: st.Node, At: int64(now), Incarnation: inc, RestabTicks: -1})
			drops = append(drops, before)
		case OpFault:
			if err := fleet.Fault(id, spec.Seed); err != nil {
				return fmt.Errorf("ops: fault step: %w", err)
			}
			report.Faults = append(report.Faults, FaultReport{Node: st.Node, At: int64(now), RestabTicks: -1})
		}
		return nil
	}

	for {
		now := fleet.Now()
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
		if err := fleet.Sync(); err != nil {
			return nil, err
		}
		pump.Step(now)
		settled := judgeSteps(fleet, report, drops, now, pp)

		// The drain gate, on the schedule's last step: schedule exhausted
		// up to the drain, workload committed, every roll and fault
		// re-stabilized (or its budget blown — the report carries the
		// verdict either way).
		if len(steps) > 0 && steps[0].Op == OpDrain && simtime.Real(steps[0].At) <= now &&
			pump.Idle() && settled {
			break
		}
		if simtime.Duration(now) >= horizon {
			return nil, fmt.Errorf("ops: campaign did not drain within %d ticks (pump idle=%v, %d steps left, %d IG3 back-offs)",
				horizon, pump.Idle(), len(steps), backend.episodes)
		}
		if fake == nil && time.Now().After(deadline) {
			return nil, fmt.Errorf("ops: campaign wall deadline exceeded (%d steps left)", len(steps))
		}
		wait(pp.D / 4)
	}
	// Flush the decide-return tail before freezing the trace (the
	// General's own return leads peers by ≤ 2d).
	wait(2 * pp.D)
	if err := fleet.Sync(); err != nil {
		return nil, err
	}
	judgeSteps(fleet, report, drops, fleet.Now(), pp)

	report.Horizon = int64(fleet.Now())
	report.Backoffs = backend.episodes
	report.Logs = pump.Results()
	for _, lr := range report.Logs {
		report.Committed += len(lr.Committed)
		report.Dropped += lr.Dropped
		report.Failed += lr.Failed
	}
	report.Result = nettrans.BuildResult(pp, fleet.Recorder().Events(), spec.Steady(), simtime.Duration(report.Horizon)+1)
	frozen := make([]*frozenBackend, pp.N)
	for i := range frozen {
		frozen[i] = &frozenBackend{id: protocol.NodeID(i), pp: pp, now: fleet.Now()}
	}
	for _, id := range fleet.Running() {
		st, err := fleet.Stats(id)
		if err != nil {
			return nil, err
		}
		report.Stats.Add(st)
		frozen[id].stats = st
	}
	replayHealth(report, fleet.Recorder().Events(), frozen)
	return report, nil
}

// Canonical renders the report to bytes that must be identical for two
// runs of the same spec and seed under virtual time: the JSON report
// followed by every trace event, sorted
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
	blob, err := json.Marshal(r)
	if err != nil {
		blob = []byte(err.Error())
	}
	for _, ev := range events {
		blob = wire.AppendTraceEvent(blob, ev)
	}
	return blob
}

// judgeSteps updates the roll and fault verdicts against the trace and
// counters: re-stabilization is the node's first decide after the step
// (order-insensitive recorder query, so virtual runs stay
// deterministic), replay rejection an EpochDrops rise at each probed
// peer (a failed scrape reads as not yet). It reports whether every roll
// and fault has settled: re-stabilized, or out of its Δstb budget (the
// report then carries the failure).
func judgeSteps(fleet CampaignFleet, report *CampaignReport, drops []map[protocol.NodeID]int64, now simtime.Real, pp protocol.Params) bool {
	settled := true
	restab := func(node int, at int64, ticks *int64, within *bool) {
		if *ticks < 0 {
			first := simtime.Real(-1)
			fleet.Recorder().ForEachKind(func(ev protocol.TraceEvent) {
				if ev.Node == protocol.NodeID(node) && ev.RT >= simtime.Real(at) &&
					(first < 0 || ev.RT < first) {
					first = ev.RT
				}
			}, protocol.EvDecide)
			if first >= 0 {
				*ticks = int64(first) - at
				*within = simtime.Duration(*ticks) <= pp.DeltaStb()
			}
		}
		settled = settled && (*ticks >= 0 || simtime.Duration(int64(now)-at) > pp.DeltaStb())
	}
	for i := range report.Rolls {
		rr := &report.Rolls[i]
		restab(rr.Node, rr.At, &rr.RestabTicks, &rr.WithinDeltaStb)
		for peer, before := range drops[i] {
			if st, err := fleet.Stats(peer); err == nil && st.EpochDrops > before {
				rr.EpochDropPeers++
				delete(drops[i], peer)
			}
		}
	}
	for i := range report.Faults {
		fr := &report.Faults[i]
		restab(fr.Node, fr.At, &fr.RestabTicks, &fr.WithinDeltaStb)
	}
	return settled
}

// Verdicts judges a finished campaign against its spec and returns one
// line per failed verdict (none when the campaign passed): every scale,
// roll and fault step executed; the workload committed; every roll and
// fault re-stabilized within Δstb, every roll's replay rejected by all
// peers; final fleet health stabilized; and the property battery clean
// over the pump's logs, judged at the Steady nodes.
func (r *CampaignReport) Verdicts(spec ClusterSpec) []string {
	var errs []string
	steps := make(map[string]int)
	for _, st := range spec.Steps {
		steps[st.Op]++
	}
	if len(r.Scales) != steps[OpScale] || len(r.Rolls) != steps[OpRoll] || len(r.Faults) != steps[OpFault] {
		errs = append(errs, fmt.Sprintf("membership: %d scales, %d rolls and %d faults executed, the spec has %d, %d and %d",
			len(r.Scales), len(r.Rolls), len(r.Faults), steps[OpScale], steps[OpRoll], steps[OpFault]))
	}
	if r.Committed == 0 || r.Failed != 0 || r.Dropped != 0 {
		errs = append(errs, fmt.Sprintf("workload: committed=%d failed=%d dropped=%d",
			r.Committed, r.Failed, r.Dropped))
	}
	for _, rr := range r.Rolls {
		if rr.RestabTicks < 0 || !rr.WithinDeltaStb {
			errs = append(errs, fmt.Sprintf("roll of node %d missed the Δstb=%d budget (restab=%d)",
				rr.Node, r.Params.DeltaStb(), rr.RestabTicks))
		}
		if rr.EpochDropPeers != r.Params.N-1 {
			errs = append(errs, fmt.Sprintf("old-incarnation replay rejected by %d/%d peers",
				rr.EpochDropPeers, r.Params.N-1))
		}
	}
	for _, fr := range r.Faults {
		if fr.RestabTicks < 0 || !fr.WithinDeltaStb {
			errs = append(errs, fmt.Sprintf("fault of node %d missed the Δstb=%d budget (restab=%d)",
				fr.Node, r.Params.DeltaStb(), fr.RestabTicks))
		}
	}
	for id, st := range r.Health {
		if st != StateStabilized {
			errs = append(errs, fmt.Sprintf("final health[%d] = %q", id, st))
		}
	}
	for _, v := range service.Battery(r.Result, r.Logs) {
		errs = append(errs, "battery: "+v.String())
	}
	return errs
}

// ReplayProbe forges a protocol frame stamped with the given wire epoch
// id — an old incarnation of node from — in the container every data
// frame travels in. Orchestrators offer it to each peer after a roll;
// the acceptance pipeline must reject it at its first step
// (epoch_drops), proving the old life is dead.
func ReplayProbe(epochID uint64, from protocol.NodeID, sent int64) []byte {
	frame := wire.AppendFrame(nil, wire.Frame{
		Kind:  wire.FrameMessage,
		From:  from,
		Epoch: epochID,
		Sent:  sent,
		Payload: wire.AppendMessage(nil, protocol.Message{
			Kind: protocol.Initiator, G: from, From: from, M: "stale",
		}),
	})
	return wire.AppendBatch(nil, from, epochID, sent, frame, []int{len(frame)})
}

// frozenBackend is one slot's end-of-campaign readings: the NodeBackend
// the health replay's Controls read for the state alone. The replay
// never initiates, faults, bumps or reads a trace, so the embedded
// interface stays nil, and the incarnation reads 0.
type frozenBackend struct {
	NodeBackend
	id    protocol.NodeID
	pp    protocol.Params
	now   simtime.Real
	stats nettrans.Stats
}

func (b *frozenBackend) ID() protocol.NodeID     { return b.id }
func (b *frozenBackend) Params() protocol.Params { return b.pp }
func (b *frozenBackend) NowTicks() simtime.Real  { return b.now }
func (b *frozenBackend) Stats() nettrans.Stats   { return b.stats }
func (b *frozenBackend) Incarnation() uint64     { return 0 }

// replayHealth replays the campaign's canonical trace through one
// Control per slot and records the final health states and event
// tallies. The trace is sorted (RT, then node) first, so the replay —
// and with it the report — is independent of recorder arrival order.
func replayHealth(report *CampaignReport, events []protocol.TraceEvent, backends []*frozenBackend) {
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].RT != events[j].RT {
			return events[i].RT < events[j].RT
		}
		return events[i].Node < events[j].Node
	})
	n := len(backends)
	report.Health = make([]State, n)
	controls := make([]*Control, n)
	chans := make([]<-chan Event, n)
	for i, be := range backends {
		controls[i] = NewControl(be)
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
