// Package sim assembles and runs complete simulation scenarios: a world of
// correct nodes (internal/core) and adversaries (internal/byzantine),
// scripted initiations, optional transient-fault injection, and result
// extraction for the property checkers and the experiment harness.
package sim

import (
	"fmt"
	"sort"

	"ssbyz/internal/core"
	"ssbyz/internal/protocol"
	"ssbyz/internal/simnet"
	"ssbyz/internal/simtime"
)

// Initiation schedules a General-side agreement initiation at a virtual
// real time. Slot selects a concurrent-invocation slot when the correct
// nodes are indexed (footnote-9 extension); it must be 0 otherwise.
type Initiation struct {
	At    simtime.Real
	G     protocol.NodeID
	Value protocol.Value
	Slot  int
}

// Scenario describes one run.
type Scenario struct {
	// Params are the protocol constants; zero value defaults to
	// DefaultParams(7).
	Params protocol.Params
	// Seed drives all randomness.
	Seed int64
	// DelayMin/DelayMax bound actual message delays (default [D/2, D]).
	DelayMin, DelayMax simtime.Duration
	// Delay optionally overrides the delay policy.
	Delay simnet.DelayFn
	// Clocks optionally sets per-node clocks.
	Clocks []simtime.Clock
	// Faulty maps node IDs to adversary implementations. A nil entry is a
	// crash-faulty (forever silent) node. IDs not present are correct.
	Faulty map[protocol.NodeID]protocol.Node
	// NewNode builds each correct node's state machine (default
	// core.NewNode). Alternative factories (e.g. the pulse layer) must
	// return nodes that implement Initiator for scripted initiations to
	// work.
	NewNode func() protocol.Node
	// Initiations are the scripted General actions. Initiations by faulty
	// Generals are ignored here (the adversary scripts its own behaviour).
	Initiations []Initiation
	// Corrupt, when non-nil, runs at virtual time 0 against the assembled
	// world, before any protocol event (the transient-fault hook).
	Corrupt func(w *simnet.World)
	// Drive, when non-nil, runs after the world starts and before any
	// scripted initiation is registered. It lets a dynamic driver — the
	// replicated-log service pump reacting to decide returns — schedule
	// its own virtual-time callbacks via w.Scheduler(), something the
	// static Initiations list cannot express.
	Drive func(w *simnet.World)
	// RunFor is the virtual real time to simulate (default 3·Δagr).
	RunFor simtime.Duration
	// Conditions is the scripted network-condition schedule — timed
	// partitions, jitter windows, node churn — applied deterministically
	// at delivery time (see simnet/conditions.go).
	Conditions []simnet.Condition
}

// Initiator is the General-side capability required of correct nodes for
// scripted initiations.
type Initiator interface {
	InitiateAgreement(v protocol.Value) error
}

// SlotInitiator is the indexed (concurrent-invocation) variant.
type SlotInitiator interface {
	InitiateAgreement(slot int, v protocol.Value) error
}

// Decision is the outcome of one correct node for one General.
type Decision struct {
	Node    protocol.NodeID
	Decided bool // false = abort (⊥)
	Value   protocol.Value
	RT      simtime.Real  // real time of the return
	Tau     simtime.Local // local time of the return
	TauG    simtime.Local // the anchor
	RTauG   simtime.Real  // real time at which the local clock read TauG
}

// Result is everything a run produced. The per-General accessors
// (Decisions, IAccepts, Invocations, Initiations) extract from the
// recorder's kind index once and memoize: the property battery asks for
// the same extracts ~10 times per run, and at large n re-scanning (and
// re-copying) the full trace per predicate dominated the checking cost.
// The returned slices are shared — callers must treat them as read-only.
// The accessors are not safe for concurrent use (runs are checked from
// one goroutine).
type Result struct {
	Scenario Scenario
	World    *simnet.World
	Rec      *protocol.Recorder
	// Correct lists the IDs of correct nodes, ascending.
	Correct []protocol.NodeID
	// InitErrs records sending-validity refusals hit by scripted
	// initiations (IG1–IG3), keyed by initiation index.
	InitErrs map[int]error

	// correctSet answers IsCorrect in O(1); index by node ID.
	correctSet []bool
	decCache   map[protocol.NodeID][]Decision
	iaCache    map[protocol.NodeID][]protocol.TraceEvent
	invCache   map[protocol.NodeID][]protocol.TraceEvent
	initCache  map[protocol.NodeID][]protocol.TraceEvent
}

// Run executes the scenario to completion.
func Run(sc Scenario) (*Result, error) {
	if sc.Params.N == 0 {
		sc.Params = protocol.DefaultParams(7)
	}
	if err := sc.Params.Validate(); err != nil {
		return nil, err
	}
	if sc.DelayMax == 0 {
		sc.DelayMax = sc.Params.D
	}
	if sc.DelayMin == 0 {
		sc.DelayMin = sc.Params.D / 2
	}
	if sc.RunFor == 0 {
		sc.RunFor = 3 * sc.Params.DeltaAgr()
	}
	if len(sc.Faulty) > sc.Params.F {
		return nil, fmt.Errorf("sim: %d faulty nodes exceeds f=%d", len(sc.Faulty), sc.Params.F)
	}

	w, err := simnet.New(simnet.Config{
		Params:     sc.Params,
		Seed:       sc.Seed,
		DelayMin:   sc.DelayMin,
		DelayMax:   sc.DelayMax,
		Delay:      sc.Delay,
		Clocks:     sc.Clocks,
		Conditions: sc.Conditions,
	})
	if err != nil {
		return nil, err
	}

	res := &Result{
		Scenario:   sc,
		World:      w,
		Rec:        w.Recorder(),
		InitErrs:   make(map[int]error),
		correctSet: make([]bool, sc.Params.N),
	}
	for i := 0; i < sc.Params.N; i++ {
		id := protocol.NodeID(i)
		if adv, ok := sc.Faulty[id]; ok {
			if adv != nil {
				w.SetNode(id, adv)
			}
			continue
		}
		if sc.NewNode != nil {
			w.SetNode(id, sc.NewNode())
		} else {
			w.SetNode(id, core.NewNode())
		}
		res.Correct = append(res.Correct, id)
		res.correctSet[id] = true
	}
	sort.Slice(res.Correct, func(i, j int) bool { return res.Correct[i] < res.Correct[j] })

	if sc.Corrupt != nil {
		sc.Corrupt(w)
	}
	w.Start()
	if sc.Drive != nil {
		sc.Drive(w)
	}

	for i, init := range sc.Initiations {
		if _, faulty := sc.Faulty[init.G]; faulty {
			continue
		}
		i, init := i, init
		w.Scheduler().At(init.At, func() {
			var err error
			switch n := w.Node(init.G).(type) {
			case SlotInitiator:
				err = n.InitiateAgreement(init.Slot, init.Value)
			case Initiator:
				if init.Slot != 0 {
					err = fmt.Errorf("sim: node %d has no concurrent slots", init.G)
				} else {
					err = n.InitiateAgreement(init.Value)
				}
			default:
				err = fmt.Errorf("sim: node %d cannot initiate agreements", init.G)
			}
			if err != nil {
				res.InitErrs[i] = err
			}
		})
	}

	w.RunUntil(simtime.Real(sc.RunFor))
	return res, nil
}

// IsCorrect reports whether id is a correct node in this run.
func (r *Result) IsCorrect(id protocol.NodeID) bool {
	if r.correctSet != nil {
		return id >= 0 && int(id) < len(r.correctSet) && r.correctSet[id]
	}
	for _, c := range r.Correct {
		if c == id {
			return true
		}
	}
	return false
}

// Decisions returns every correct node's return (decide or abort) for
// General g, in node order. Nodes that never returned are absent. The
// slice is memoized and shared — read-only for callers.
func (r *Result) Decisions(g protocol.NodeID) []Decision {
	if out, ok := r.decCache[g]; ok {
		return out
	}
	var out []Decision
	r.Rec.ForEachKind(func(ev protocol.TraceEvent) {
		if ev.G != g || !r.IsCorrect(ev.Node) {
			return
		}
		d := Decision{Node: ev.Node, Decided: ev.Kind == protocol.EvDecide,
			RT: ev.RT, Tau: ev.Tau, TauG: ev.TauG, RTauG: ev.RTauG}
		if d.Decided {
			d.Value = ev.M
		} else {
			d.Value = protocol.Bottom
		}
		out = append(out, d)
	}, protocol.EvDecide, protocol.EvAbort)
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	if r.decCache == nil {
		r.decCache = make(map[protocol.NodeID][]Decision)
	}
	r.decCache[g] = out
	return out
}

// kindForG extracts kind-events for General g through a per-G cache.
func (r *Result) kindForG(cache *map[protocol.NodeID][]protocol.TraceEvent,
	g protocol.NodeID, kind protocol.EventKind, correctOnly bool) []protocol.TraceEvent {
	if out, ok := (*cache)[g]; ok {
		return out
	}
	var out []protocol.TraceEvent
	r.Rec.ForEachKind(func(ev protocol.TraceEvent) {
		if ev.G == g && (!correctOnly || r.IsCorrect(ev.Node)) {
			out = append(out, ev)
		}
	}, kind)
	if *cache == nil {
		*cache = make(map[protocol.NodeID][]protocol.TraceEvent)
	}
	(*cache)[g] = out
	return out
}

// IAccepts returns the I-accept events of correct nodes for General g
// (memoized; read-only).
func (r *Result) IAccepts(g protocol.NodeID) []protocol.TraceEvent {
	return r.kindForG(&r.iaCache, g, protocol.EvIAccept, true)
}

// Invocations returns the protocol-invocation events of correct nodes for
// General g (Block Q1 executions; memoized; read-only).
func (r *Result) Invocations(g protocol.NodeID) []protocol.TraceEvent {
	return r.kindForG(&r.invCache, g, protocol.EvInvoke, true)
}

// Initiations returns the EvInitiate events for General g (memoized;
// read-only).
func (r *Result) Initiations(g protocol.NodeID) []protocol.TraceEvent {
	return r.kindForG(&r.initCache, g, protocol.EvInitiate, false)
}
