// Package scenario is the declarative scenario engine: a JSON-serializable
// Spec describing one complete adversarial run — committee size, seed,
// per-node adversary assignments (including composed, staged, and adaptive
// strategies), a network-condition schedule, and the General script — plus
// a seeded random generator of model-legal specs and a greedy shrinker
// that minimizes property-violating specs into replayable counterexamples.
//
// The paper's proofs quantify over every Byzantine strategy and every
// arrival pattern the bounded-delay model admits; a Spec is one point of
// that space, and the S2 campaign (internal/harness) samples it by the
// thousand. Because a Spec carries every bit of entropy a run consumes,
// any violating spec replays byte-identically: `ssbyz-bench -replay
// spec.json` re-runs the exact counterexample.
package scenario

import (
	"encoding/json"
	"fmt"
	"sort"

	"ssbyz/internal/byzantine"
	"ssbyz/internal/check"
	"ssbyz/internal/protocol"
	"ssbyz/internal/sim"
	"ssbyz/internal/simnet"
	"ssbyz/internal/simtime"
)

// Adversary kinds of the declarative vocabulary. Leaves map to one
// internal/byzantine strategy; Compose/Staged/Adaptive combine the specs
// in Parts.
const (
	KindCrash       = "crash"       // forever silent
	KindYeasayer    = "yeasayer"    // amplifies every wave
	KindEquivocator = "equivocator" // faulty General, different values to different nodes
	KindPartial     = "partial"     // faulty General, initiation to a subset
	KindLate        = "late"        // colludes as late as the windows allow
	KindSpam        = "spam"        // floods syntactically valid garbage
	KindReplay      = "replay"      // captures and re-broadcasts traffic
	KindForge       = "forge"       // fabricates broadcast-layer echoes
	KindMirror      = "mirror"      // reflects every wave back at its sender
	KindEdge        = "edge"        // votes exactly on the n−2f threshold edge
	KindCompose     = "compose"     // run all Parts on one node
	KindStaged      = "staged"      // switch between Parts at local times
	KindAdaptive    = "adaptive"    // arm the last Part on a watched event
)

// AdversarySpec declares the strategy of one faulty node. Which fields
// matter depends on Kind; unused fields are ignored (and omitted from
// JSON). For combinators, Parts carries the member specs (their Node
// field is ignored — members share the combinator's node; a Staged
// member's At is its switch-over local time).
type AdversarySpec struct {
	// Node is the faulty node the strategy runs on.
	Node protocol.NodeID `json:"node"`
	Kind string          `json:"kind"`
	// Values parameterizes equivocator (the split values), partial and
	// forge (value [0]), and late (collude only with value [0]).
	Values []protocol.Value `json:"values,omitempty"`
	// At is a local time: attack time (equivocator, partial, forge),
	// replay delay, or stage switch-over inside a Staged parent.
	At simtime.Duration `json:"at,omitempty"`
	// Hold is a secondary local delay: late's contribution hold, spam's
	// stop time, partial's support delay.
	Hold simtime.Duration `json:"hold,omitempty"`
	// G scopes late (the wave to collude with), forge (the agreement
	// context), and adaptive (arm on the first wave observed for G).
	G protocol.NodeID `json:"g,omitempty"`
	// Targets is partial's invitee set and forge's claimed broadcaster
	// ([0]).
	Targets []protocol.NodeID `json:"targets,omitempty"`
	// Parts are the members of a combinator kind.
	Parts []AdversarySpec `json:"parts,omitempty"`
}

// Initiation is one entry of the General script: correct General G
// initiates agreement on Value at virtual real time At.
type Initiation struct {
	At    simtime.Real    `json:"at"`
	G     protocol.NodeID `json:"g"`
	Value protocol.Value  `json:"value"`
}

// Runtime names a Spec can carry: which execution substrate replays it.
const (
	// RuntimeSim (also the empty default) runs under the discrete-event
	// simulator — message-level adversaries, no bytes on any wire.
	RuntimeSim = "sim"
	// RuntimeVirtual runs on the nettrans virtual-time cluster: the full
	// wire codec and receive pipeline over the deterministic in-memory
	// wire, so byte-level attack conditions and mid-run faults replay
	// byte-identically.
	RuntimeVirtual = "virtual"
	// RuntimeLive runs on the in-process loopback cluster: real sockets,
	// wall-clock time. Same attack vocabulary as virtual, minus
	// determinism.
	RuntimeLive = "live"
)

// Fault is one scripted mid-run transient fault: at virtual real time
// At, the running node's protocol state is corrupted arbitrarily
// (transient.CorruptRunning), seeded by Seed — the live form of the
// arbitrary initial state the paper's self-stabilization property
// quantifies over. The runner plants a phantom "returned" record for
// General Node as the recovery observable and measures the time until
// the recovery sweep clears it, against Δstb = 2Δreset.
type Fault struct {
	At   simtime.Real    `json:"at"`
	Node protocol.NodeID `json:"node"`
	Seed int64           `json:"seed"`
	// SeverityPermille scales each corruption class's hit probability in
	// thousandths (0 = the injector default, 1000).
	SeverityPermille int `json:"severity_permille,omitempty"`
}

// Spec is one declarative scenario: everything a run consumes, so a spec
// replays byte-identically. The zero value of optional fields defers to
// the model defaults (F → ⌊(n−1)/3⌋, delays → [d/2, d], RunFor → last
// initiation + 3Δagr).
type Spec struct {
	N int `json:"n"`
	// F lowers the declared fault bound below optimal (0 = optimal).
	F    int   `json:"f,omitempty"`
	Seed int64 `json:"seed"`
	// Runtime selects the execution substrate: RuntimeSim (default ""),
	// RuntimeVirtual, or RuntimeLive. Wire-level attack conditions and
	// Faults require a live runtime — the simulator has no frames to
	// attack and no running process to corrupt.
	Runtime string `json:"runtime,omitempty"`
	// Transport selects the live cluster's socket flavor ("udp" default,
	// "tcp"); ignored by the simulator.
	Transport string `json:"transport,omitempty"`
	// DelayMin/DelayMax bound actual message delays in ticks. 0 defers to
	// the defaults ([d/2, d] under the simulator, [d/4, d/2] on the live
	// runtimes); the generators always set both explicitly.
	DelayMin simtime.Duration `json:"delay_min,omitempty"`
	DelayMax simtime.Duration `json:"delay_max,omitempty"`
	// Adversaries assigns strategies to faulty nodes (≤ f entries,
	// distinct nodes).
	Adversaries []AdversarySpec `json:"adversaries,omitempty"`
	// Conditions is the network-condition schedule (simnet vocabulary,
	// including the wire-level attack kinds on live runtimes).
	Conditions []simnet.Condition `json:"conditions,omitempty"`
	// Script is the General script: at most one initiation per General,
	// all by correct nodes.
	Script []Initiation `json:"script,omitempty"`
	// Faults is the transient-fault script (live runtimes only). Scripted
	// initiations must complete before the first fault or start after the
	// last fault's Δstb window — the battery judges the clean phases, the
	// fault window is what the paper's convergence claim covers.
	Faults []Fault `json:"faults,omitempty"`
	// RunFor is the virtual duration to simulate (0 = last scripted
	// initiation + 3Δagr, extended past the last fault's Δstb window).
	RunFor simtime.Duration `json:"run_for,omitempty"`
}

// Params materializes the protocol constants the spec implies.
func (sp Spec) Params() protocol.Params {
	pp := protocol.DefaultParams(sp.N)
	if sp.F > 0 {
		pp.F = sp.F
	}
	return pp
}

// LiveRuntime reports whether the spec names a live execution substrate
// (virtual-time or wall-clock cluster) rather than the simulator.
func (sp Spec) LiveRuntime() bool {
	return sp.Runtime == RuntimeVirtual || sp.Runtime == RuntimeLive
}

// Validate checks the spec against the model: n > 3f, at most f distinct
// faulty nodes, a script of correct Generals with at most one initiation
// each, well-formed adversary specs, structurally valid conditions
// (wire-level attack kinds only on live runtimes), and a fault script
// confined to live runtimes with the script phase-separated around it.
// Drop-scope model legality (partitions and byte-level attackers naming
// only faulty nodes) remains the generator's contract, as under the
// simulator: a spec violating it runs, and the battery's verdict on it
// is about the spec, not the paper.
func (sp Spec) Validate() error {
	pp := sp.Params()
	if err := pp.Validate(); err != nil {
		return err
	}
	switch sp.Runtime {
	case "", RuntimeSim, RuntimeVirtual, RuntimeLive:
	default:
		return fmt.Errorf("scenario: unknown runtime %q", sp.Runtime)
	}
	if sp.Transport != "" && !sp.LiveRuntime() {
		return fmt.Errorf("scenario: transport %q requires a live runtime", sp.Transport)
	}
	for i, c := range sp.Conditions {
		if err := simnet.ValidateCondition(i, c, pp.N, sp.LiveRuntime()); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
	}
	if sp.LiveRuntime() && sp.DelayMax > pp.D/2 {
		return fmt.Errorf("scenario: live delay max %d exceeds d/2 = %d (the chaos layer owns the other half of d)",
			sp.DelayMax, pp.D/2)
	}
	if len(sp.Faults) > 0 {
		if !sp.LiveRuntime() {
			return fmt.Errorf("scenario: faults require a live runtime (the simulator corrupts state before start, not mid-run)")
		}
		adv := make(map[protocol.NodeID]bool, len(sp.Adversaries))
		for _, a := range sp.Adversaries {
			adv[a.Node] = true
		}
		firstFault, lastFault := sp.Faults[0].At, sp.Faults[0].At
		for _, f := range sp.Faults {
			if f.Node < 0 || int(f.Node) >= pp.N {
				return fmt.Errorf("scenario: fault on node %d outside [0,%d)", f.Node, pp.N)
			}
			if adv[f.Node] {
				return fmt.Errorf("scenario: fault on adversary node %d (transient faults hit correct nodes; Byzantine nodes need no help)", f.Node)
			}
			if f.At <= 0 {
				return fmt.Errorf("scenario: fault at tick %d (must be mid-run, after start)", f.At)
			}
			if f.SeverityPermille < 0 || f.SeverityPermille > 1000 {
				return fmt.Errorf("scenario: fault severity %d‰ outside [0,1000]", f.SeverityPermille)
			}
			if f.At < firstFault {
				firstFault = f.At
			}
			if f.At > lastFault {
				lastFault = f.At
			}
		}
		postStart := lastFault + simtime.Real(pp.DeltaStb())
		for _, init := range sp.Script {
			pre := init.At+simtime.Real(3*pp.DeltaAgr()) <= firstFault
			post := init.At >= postStart
			if !pre && !post {
				return fmt.Errorf("scenario: initiation by General %d at %d overlaps the fault window [%d, %d) — finish 3Δagr before it or start after it",
					init.G, init.At, firstFault, postStart)
			}
		}
	}
	if len(sp.Adversaries) > pp.F {
		return fmt.Errorf("scenario: %d adversaries exceed f=%d", len(sp.Adversaries), pp.F)
	}
	faulty := make(map[protocol.NodeID]bool, len(sp.Adversaries))
	for _, a := range sp.Adversaries {
		if a.Node < 0 || int(a.Node) >= pp.N {
			return fmt.Errorf("scenario: adversary on node %d outside [0,%d)", a.Node, pp.N)
		}
		if faulty[a.Node] {
			return fmt.Errorf("scenario: node %d has two adversaries (use %q)", a.Node, KindCompose)
		}
		faulty[a.Node] = true
		if _, err := a.build(); err != nil {
			return err
		}
	}
	scripted := make(map[protocol.NodeID]bool, len(sp.Script))
	for _, init := range sp.Script {
		if init.G < 0 || int(init.G) >= pp.N {
			return fmt.Errorf("scenario: script General %d outside [0,%d)", init.G, pp.N)
		}
		if faulty[init.G] {
			return fmt.Errorf("scenario: script General %d is faulty (adversaries script themselves)", init.G)
		}
		if scripted[init.G] {
			return fmt.Errorf("scenario: General %d initiates twice (one initiation per General)", init.G)
		}
		scripted[init.G] = true
		if init.Value == protocol.Bottom {
			return fmt.Errorf("scenario: General %d initiates ⊥", init.G)
		}
	}
	return nil
}

// build materializes one adversary spec into a protocol.Node.
func (a AdversarySpec) build() (protocol.Node, error) {
	value := func(i int, def protocol.Value) protocol.Value {
		if i < len(a.Values) {
			return a.Values[i]
		}
		return def
	}
	switch a.Kind {
	case KindCrash:
		return &byzantine.Silent{}, nil
	case KindYeasayer:
		return &byzantine.Yeasayer{}, nil
	case KindEquivocator:
		vals := a.Values
		if len(vals) < 2 {
			vals = []protocol.Value{"x", "y"}
		}
		return &byzantine.Equivocator{Values: vals, At: a.At}, nil
	case KindPartial:
		return &byzantine.PartialGeneral{
			Invitees: a.Targets, Value: value(0, "p"), At: a.At, SupportDelay: a.Hold,
		}, nil
	case KindLate:
		return &byzantine.LateSupporter{G: a.G, Value: value(0, protocol.Bottom), HoldLocal: a.Hold}, nil
	case KindSpam:
		return &byzantine.Spammer{Stop: a.Hold, Values: a.Values}, nil
	case KindReplay:
		return &byzantine.Replayer{Delay: a.At}, nil
	case KindForge:
		var p protocol.NodeID
		if len(a.Targets) > 0 {
			p = a.Targets[0]
		}
		return &byzantine.EchoForger{G: a.G, ForgedP: p, ForgedV: value(0, "f"), K: 1, At: a.At}, nil
	case KindMirror:
		return &byzantine.MirrorVoter{}, nil
	case KindEdge:
		return &byzantine.EdgeSupporter{}, nil
	case KindCompose:
		if len(a.Parts) == 0 {
			return nil, fmt.Errorf("scenario: %q adversary on node %d has no parts", a.Kind, a.Node)
		}
		parts := make([]protocol.Node, len(a.Parts))
		for i, p := range a.Parts {
			n, err := p.build()
			if err != nil {
				return nil, err
			}
			parts[i] = n
		}
		return &byzantine.Composite{Parts: parts}, nil
	case KindStaged:
		if len(a.Parts) == 0 {
			return nil, fmt.Errorf("scenario: %q adversary on node %d has no parts", a.Kind, a.Node)
		}
		stages := make([]byzantine.Stage, len(a.Parts))
		for i, p := range a.Parts {
			n, err := p.build()
			if err != nil {
				return nil, err
			}
			stages[i] = byzantine.Stage{At: p.At, Node: n}
		}
		return &byzantine.Staged{Stages: stages}, nil
	case KindAdaptive:
		if len(a.Parts) == 0 || len(a.Parts) > 2 {
			return nil, fmt.Errorf("scenario: %q adversary on node %d needs 1–2 parts", a.Kind, a.Node)
		}
		armedSpec := a.Parts[len(a.Parts)-1]
		var base protocol.Node
		if len(a.Parts) == 2 {
			b, err := a.Parts[0].build()
			if err != nil {
				return nil, err
			}
			base = b
		}
		if _, err := armedSpec.build(); err != nil {
			return nil, err
		}
		return &byzantine.Adaptive{
			Base:    base,
			Trigger: byzantine.OnGeneral(a.G),
			Then: func() protocol.Node {
				n, _ := armedSpec.build()
				return n
			},
		}, nil
	default:
		return nil, fmt.Errorf("scenario: unknown adversary kind %q on node %d", a.Kind, a.Node)
	}
}

// Scenario lowers the spec into the simulator's vocabulary.
func (sp Spec) Scenario() (sim.Scenario, error) {
	if sp.LiveRuntime() {
		return sim.Scenario{}, fmt.Errorf("scenario: %q runtime specs run on the cluster (RunLive), not the simulator", sp.Runtime)
	}
	if err := sp.Validate(); err != nil {
		return sim.Scenario{}, err
	}
	pp := sp.Params()
	sc := sim.Scenario{
		Params:     pp,
		Seed:       sp.Seed,
		DelayMin:   sp.DelayMin,
		DelayMax:   sp.DelayMax,
		Conditions: sp.Conditions,
		RunFor:     sp.RunFor,
		Faulty:     make(map[protocol.NodeID]protocol.Node, len(sp.Adversaries)),
	}
	for _, a := range sp.Adversaries {
		n, err := a.build()
		if err != nil {
			return sim.Scenario{}, err
		}
		sc.Faulty[a.Node] = n
	}
	for _, init := range sp.Script {
		sc.Initiations = append(sc.Initiations,
			sim.Initiation{At: init.At, G: init.G, Value: init.Value})
	}
	if sc.RunFor == 0 {
		var last simtime.Real
		for _, init := range sp.Script {
			if init.At > last {
				last = init.At
			}
		}
		sc.RunFor = simtime.Duration(last) + 3*pp.DeltaAgr()
	}
	return sc, nil
}

// Run executes the spec to completion.
func Run(sp Spec) (*sim.Result, error) {
	sc, err := sp.Scenario()
	if err != nil {
		return nil, err
	}
	return sim.Run(sc)
}

// Check runs the full property battery over a finished run of the spec:
// every General's Agreement/Timeliness/Termination/IA/TPS bounds, plus
// the Validity window of each scripted initiation (a refused scripted
// initiation is itself a violation — the generator only emits legal
// scripts).
func Check(res *sim.Result, sp Spec) []check.Violation {
	var out []check.Violation
	pp := res.Scenario.Params
	for g := 0; g < pp.N; g++ {
		out = append(out, check.All(res, protocol.NodeID(g))...)
	}
	for i, init := range sp.Script {
		if err, refused := res.InitErrs[i]; refused {
			out = append(out, check.Violation{
				Property: "Script",
				Detail:   fmt.Sprintf("initiation %d (G%d,%q) refused: %v", i, init.G, init.Value, err),
			})
			continue
		}
		out = append(out, check.Validity(res, init.G, init.At, init.Value)...)
	}
	return out
}

// RunCheck runs the spec and returns the battery's verdict. A spec that
// fails to even run (invalid params, bad adversary vocabulary) reports
// one synthetic "Spec" violation, so searches can treat run errors and
// property violations uniformly.
func RunCheck(sp Spec) (*sim.Result, []check.Violation) {
	res, err := Run(sp)
	if err != nil {
		return nil, []check.Violation{{Property: "Spec", Detail: err.Error()}}
	}
	return res, Check(res, sp)
}

// Marshal renders the spec as deterministic, replayable JSON (the
// artifact `ssbyz-bench -replay` consumes).
func (sp Spec) Marshal() []byte {
	blob, err := json.MarshalIndent(sp, "", "  ")
	if err != nil {
		// Spec contains only plain data; marshalling cannot fail.
		panic(fmt.Sprintf("scenario: marshal: %v", err))
	}
	return append(blob, '\n')
}

// Parse decodes a spec from JSON and validates it.
func Parse(blob []byte) (Spec, error) {
	var sp Spec
	if err := json.Unmarshal(blob, &sp); err != nil {
		return Spec{}, fmt.Errorf("scenario: parse: %w", err)
	}
	if err := sp.Validate(); err != nil {
		return Spec{}, err
	}
	return sp, nil
}

// components counts the knobs a shrinker can still remove — the size
// measure minimization reports progress against.
func (sp Spec) components() int {
	n := len(sp.Conditions) + len(sp.Script) + len(sp.Faults)
	for _, a := range sp.Adversaries {
		n += a.size()
	}
	return n
}

func (a AdversarySpec) size() int {
	n := 1
	for _, p := range a.Parts {
		n += p.size()
	}
	return n
}

// sortAdversaries keeps adversary order canonical (by node) so shrunk and
// generated specs marshal deterministically regardless of construction
// order.
func sortAdversaries(advs []AdversarySpec) {
	sort.Slice(advs, func(i, j int) bool { return advs[i].Node < advs[j].Node })
}
