package scenario

import (
	"fmt"
	"sort"
	"time"

	"ssbyz/internal/check"
	"ssbyz/internal/clock"
	"ssbyz/internal/core"
	"ssbyz/internal/nettrans"
	"ssbyz/internal/protocol"
	"ssbyz/internal/sim"
	"ssbyz/internal/simtime"
	"ssbyz/internal/transient"
)

// This file executes a Spec on the live runtimes: the nettrans cluster in
// virtual time (RuntimeVirtual — byte-deterministic, the default `go
// test` substrate) or over real loopback sockets under the wall clock
// (RuntimeLive). The same spec vocabulary drives both; what the live
// runtimes add over the simulator is bytes — the wire codec, the
// receive-pipeline defenses, the byte-level attack conditions — and
// in-situ transient faults: a scripted Fault corrupts a RUNNING node's
// protocol state (transient.CorruptRunning inside its event loop) and
// the runner measures the observed re-stabilization time against the
// paper's Δstb = 2Δreset bound.

// Virtual/live tick lengths. The virtual tick is arbitrary (time only
// moves when the fake clock steps); the live tick stretches the protocol
// constants so d absorbs loopback scheduling noise.
const (
	virtualTick = time.Millisecond
	liveTick    = 500 * time.Microsecond
)

// RestabSample is the measured recovery of one scripted fault: how long
// after injection the planted phantom record was observed swept
// (Ticks < 0 when it survived to the end of the run), against the
// Budget = Δstb the paper promises.
type RestabSample struct {
	Node   protocol.NodeID  `json:"node"`
	At     simtime.Real     `json:"at"`
	Ticks  simtime.Duration `json:"ticks"`
	Budget simtime.Duration `json:"budget"`
}

// LiveRun is a finished live-runtime execution of a Spec: the shaped
// trace, the actually-traced initiation instants (the Validity anchors),
// per-fault recovery measurements, and the transport's attack/defense
// counters.
type LiveRun struct {
	Res *sim.Result
	// PreInits/PostInits are the traced initiations before the first
	// fault and after the last fault's Δstb window (all of them in
	// PreInits when the spec scripts no faults).
	PreInits, PostInits []check.LiveInitiation
	// InitErrs maps script indices to sending-validity refusals.
	InitErrs map[int]error
	// Restab has one sample per scripted fault, in fault order.
	Restab []RestabSample
	// Stats aggregates every node's transport counters — the proof of
	// which attacks were injected and which defenses fired.
	Stats nettrans.Stats
	// FirstFault/PostStart bound the fault window ([0,0) without faults):
	// the battery judges events outside it.
	FirstFault, PostStart simtime.Real
}

// liveEvent is one scheduled act of the run script: an initiation or a
// fault injection.
type liveEvent struct {
	at    simtime.Real
	init  int // script index, -1 for faults
	fault int // fault index, -1 for initiations
}

// RunLive executes a live-runtime spec to completion. The spec's Seed
// drives the virtual wire's delivery delays, so under RuntimeVirtual the
// whole run — attack schedule included — replays byte-identically.
func RunLive(sp Spec) (*LiveRun, error) {
	if !sp.LiveRuntime() {
		return nil, fmt.Errorf("scenario: runtime %q is not a live runtime (use Run)", sp.Runtime)
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	pp := sp.Params()
	cfg := nettrans.ClusterConfig{
		Params:     pp,
		Transport:  sp.Transport,
		Conditions: sp.Conditions,
		Seed:       sp.Seed,
		DelayMin:   sp.DelayMin,
		DelayMax:   sp.DelayMax,
		Faulty:     make(map[protocol.NodeID]protocol.Node, len(sp.Adversaries)),
	}
	if sp.Runtime == RuntimeVirtual {
		cfg.Tick = virtualTick
		cfg.Clock = clock.NewFake(time.Time{})
	} else {
		cfg.Tick = liveTick
	}
	for _, a := range sp.Adversaries {
		machine, err := a.build()
		if err != nil {
			return nil, err
		}
		cfg.Faulty[a.Node] = machine
	}
	c, err := nettrans.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	defer c.Stop()

	run := &LiveRun{InitErrs: make(map[int]error)}
	horizon := sp.liveHorizon(pp)
	if len(sp.Faults) > 0 {
		run.FirstFault, run.PostStart = sp.faultWindow(pp)
	}

	// The run script: initiations and fault injections merged by At.
	events := make([]liveEvent, 0, len(sp.Script)+len(sp.Faults))
	for i, init := range sp.Script {
		events = append(events, liveEvent{at: init.At, init: i, fault: -1})
	}
	for i, f := range sp.Faults {
		events = append(events, liveEvent{at: f.At, init: -1, fault: i})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })

	run.Restab = make([]RestabSample, len(sp.Faults))
	for i, f := range sp.Faults {
		run.Restab[i] = RestabSample{Node: f.Node, At: f.At, Ticks: -1, Budget: pp.DeltaStb()}
	}
	mark := sp.markG()
	// pending tracks faults whose phantom is still planted; advancing
	// time polls them so each clearing is timestamped as it happens.
	pending := make(map[int]bool)
	pollMarks := func() {
		for i := range pending {
			f := sp.Faults[i]
			cleared := false
			c.DoWait(f.Node, func(n protocol.Node) {
				cn, ok := n.(*core.Node)
				if !ok {
					cleared = true // non-core machine: nothing was planted
					return
				}
				returned, _, _ := cn.Result(mark)
				cleared = !returned
			})
			if cleared {
				run.Restab[i].Ticks = simtime.Duration(c.NowTicks() - f.At)
				delete(pending, i)
			}
		}
	}
	advanceTo := func(target simtime.Real) {
		if fake := c.Virtual(); fake != nil {
			steps := 0
			c.StepUntil(func() bool {
				if len(pending) > 0 {
					if steps%32 == 0 {
						pollMarks()
					}
					steps++
				}
				return false
			}, simtime.Duration(target))
			return
		}
		for c.NowTicks() < target {
			time.Sleep(2 * time.Millisecond)
			if len(pending) > 0 {
				pollMarks()
			}
		}
	}

	for _, ev := range events {
		advanceTo(ev.at)
		if ev.init >= 0 {
			init := sp.Script[ev.init]
			t0, _, err := c.Initiate(init.G, 0, init.Value)
			if err != nil {
				run.InitErrs[ev.init] = err
				continue
			}
			li := check.LiveInitiation{G: init.G, V: init.Value, T0: t0}
			if len(sp.Faults) == 0 || init.At < run.FirstFault {
				run.PreInits = append(run.PreInits, li)
			} else {
				run.PostInits = append(run.PostInits, li)
			}
			continue
		}
		f := sp.Faults[ev.fault]
		idx := ev.fault
		c.DoWait(f.Node, func(n protocol.Node) {
			cn, ok := n.(*core.Node)
			if !ok {
				return
			}
			transient.CorruptRunning(cn, pp, transient.Config{
				Seed:     f.Seed,
				Severity: float64(f.SeverityPermille) / 1000,
				Marks:    []protocol.NodeID{mark},
			}, simtime.Local(c.NowTicks()))
		})
		pending[idx] = true
	}
	advanceTo(simtime.Real(horizon))
	pollMarks() // final reading for anything that cleared on the last stretch

	run.Res = c.Result(horizon)
	run.Stats = c.Stats()
	return run, nil
}

// markG picks the General id the phantom mark records are planted under:
// a scripted initiation creates a GENUINE returned record for its
// General, which would make a phantom under the same id unobservable
// (the real record keeps Result true long after the sweep), so the mark
// uses an id no script entry initiates from.
func (sp Spec) markG() protocol.NodeID {
	used := make(map[protocol.NodeID]bool, len(sp.Script))
	for _, init := range sp.Script {
		used[init.G] = true
	}
	for id := protocol.NodeID(0); int(id) < sp.N; id++ {
		if !used[id] {
			return id
		}
	}
	return 0 // every id scripted: degenerate, but keep the runner total
}

// liveHorizon resolves the run's extent: RunFor when set, otherwise the
// last initiation + 3Δagr, extended past the last fault's Δstb window.
func (sp Spec) liveHorizon(pp protocol.Params) simtime.Duration {
	if sp.RunFor > 0 {
		return sp.RunFor
	}
	var last simtime.Real
	for _, init := range sp.Script {
		if init.At > last {
			last = init.At
		}
	}
	horizon := simtime.Duration(last) + 3*pp.DeltaAgr()
	for _, f := range sp.Faults {
		if h := simtime.Duration(f.At) + pp.DeltaStb() + pp.DeltaAgr(); h > horizon {
			horizon = h
		}
	}
	return horizon
}

// faultWindow returns [first fault, last fault + Δstb): the stretch the
// battery does not judge, because the paper's properties are only
// promised outside it.
func (sp Spec) faultWindow(pp protocol.Params) (first, postStart simtime.Real) {
	first, last := sp.Faults[0].At, sp.Faults[0].At
	for _, f := range sp.Faults {
		if f.At < first {
			first = f.At
		}
		if f.At > last {
			last = f.At
		}
	}
	return first, last + simtime.Real(pp.DeltaStb())
}

// CheckLive runs the property battery over a live run. Without faults it
// judges the whole trace; with faults it judges the clean prefix (events
// before the first fault) and the recovered suffix (events after the
// last fault's Δstb window) separately — and every fault must have been
// observed to re-stabilize within Δstb, the convergence the paper's
// self-stabilization property promises.
func CheckLive(run *LiveRun, sp Spec) []check.Violation {
	var out []check.Violation
	pp := run.Res.Scenario.Params
	horizon := run.Res.Scenario.RunFor
	if len(sp.Faults) == 0 {
		lr := &check.LiveResult{Result: run.Res}
		out = append(out, lr.Battery(run.PreInits)...)
	} else {
		events := run.Res.Rec.Events()
		var pre, post []protocol.TraceEvent
		for _, ev := range events {
			switch {
			case ev.RT < run.FirstFault:
				pre = append(pre, ev)
			case ev.RT >= run.PostStart:
				post = append(post, ev)
			}
		}
		preLR := &check.LiveResult{Result: nettrans.BuildResult(pp, pre, run.Res.Correct, simtime.Duration(run.FirstFault))}
		out = append(out, preLR.Battery(run.PreInits)...)
		postLR := &check.LiveResult{Result: nettrans.BuildResult(pp, post, run.Res.Correct, horizon)}
		out = append(out, postLR.Battery(run.PostInits)...)
	}
	for i, init := range sp.Script {
		if err, refused := run.InitErrs[i]; refused {
			out = append(out, check.Violation{
				Property: "Script",
				Detail:   fmt.Sprintf("initiation %d (G%d,%q) refused: %v", i, init.G, init.Value, err),
			})
		}
	}
	for _, rs := range run.Restab {
		if rs.Ticks < 0 {
			out = append(out, check.Violation{
				Property: "SelfStabilization",
				Detail:   fmt.Sprintf("fault at %d on node %d: phantom state never swept (budget Δstb = %d ticks)", rs.At, rs.Node, rs.Budget),
			})
		} else if rs.Ticks > rs.Budget {
			out = append(out, check.Violation{
				Property: "SelfStabilization",
				Detail:   fmt.Sprintf("fault at %d on node %d: re-stabilized after %d ticks, budget Δstb = %d", rs.At, rs.Node, rs.Ticks, rs.Budget),
			})
		}
	}
	return out
}

// RunCheckAny executes the spec on whatever runtime it names and returns
// the battery's verdict — the uniform predicate the shrinker and replay
// tooling use. A spec that fails to even run reports one synthetic
// "Spec" violation.
func RunCheckAny(sp Spec) []check.Violation {
	if sp.LiveRuntime() {
		run, err := RunLive(sp)
		if err != nil {
			return []check.Violation{{Property: "Spec", Detail: err.Error()}}
		}
		return CheckLive(run, sp)
	}
	_, viols := RunCheck(sp)
	return viols
}
