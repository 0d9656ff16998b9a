package ops

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"ssbyz/internal/nettrans"
	"ssbyz/internal/protocol"
	"ssbyz/internal/simtime"
)

// Step ops. A campaign is boot (implicit: every non-scale slot), then
// any number of scale/roll/fault steps at scheduled ticks, then one
// drain.
const (
	// OpScale boots a slot that was held absent at cluster start — the
	// orchestrator's scale-up.
	OpScale = "scale"
	// OpRoll replaces a running node: stop, bump its incarnation epoch on
	// every peer, reboot. The campaign asserts re-stabilization within
	// Δstb = 2Δreset and that the old incarnation's frames are rejected.
	OpRoll = "roll"
	// OpFault corrupts a running node's protocol state in place — the
	// transient fault of POST /fault, seeded by the spec's Seed at
	// severity 1000‰. It is judged like a roll: re-stabilization within
	// Δstb.
	OpFault = "fault"
	// OpDrain ends the campaign: once traffic has drained and every roll
	// has re-stabilized, stop the fleet.
	OpDrain = "drain"
)

// Step is one scheduled membership operation.
type Step struct {
	// Op is OpScale, OpRoll, OpFault, or OpDrain.
	Op string `json:"op"`
	// Node is the scale/roll/fault target (ignored for drain).
	Node int `json:"node,omitempty"`
	// At is the step's tick since the cluster epoch. Steps execute at
	// quiescent points, so under virtual time the schedule is exact and
	// the whole campaign deterministic.
	At int64 `json:"at"`
}

// ClusterSpec is the orchestrator's declarative input: the PR5 manifest
// (committee, tick, addresses, epoch) extended with a client workload
// and a membership schedule. One spec file describes a whole
// boot→scale→roll→drain campaign.
type ClusterSpec struct {
	Manifest nettrans.Manifest `json:"manifest"`
	// Seed drives every drawn number of the campaign: the virtual wire's
	// delays and the workload's Poisson arrivals.
	Seed int64 `json:"seed,omitempty"`
	// Sessions is the service layer's concurrent-slot count per General
	// (footnote 9; default 1).
	Sessions int `json:"sessions,omitempty"`
	// Entries is how many replicated-log entries the service pump commits
	// at General 0 while the membership schedule runs (default 8).
	Entries int `json:"entries,omitempty"`
	// Steps is the membership schedule, ascending by At.
	Steps []Step `json:"steps"`
}

// Validate checks the spec; every failure wraps nettrans.ErrBadManifest
// (the sentinel-matching discipline of the facade's ErrBadParams).
func (s ClusterSpec) Validate() error {
	if err := s.Manifest.Validate(); err != nil {
		return err // already wraps ErrBadManifest
	}
	pp := s.Manifest.Params()
	if s.Sessions < 0 || s.Entries < 0 {
		return fmt.Errorf("%w: negative sessions/entries", nettrans.ErrBadManifest)
	}
	scaled := make(map[int]bool)
	prevAt := int64(0)
	drained := false
	for i, st := range s.Steps {
		if drained {
			return fmt.Errorf("%w: step %d follows the drain", nettrans.ErrBadManifest, i)
		}
		if st.At < prevAt {
			return fmt.Errorf("%w: step %d at tick %d precedes step %d", nettrans.ErrBadManifest, i, st.At, i-1)
		}
		prevAt = st.At
		switch st.Op {
		case OpScale, OpRoll, OpFault:
			if st.Node <= 0 || st.Node >= pp.N {
				// Node 0 is the traffic General the service pump drives; it
				// must stay correct, so membership ops target [1, n).
				return fmt.Errorf("%w: %s of node %d outside [1,%d)", nettrans.ErrBadManifest, st.Op, st.Node, pp.N)
			}
			if st.Op != OpScale && !scaled[st.Node] && slices.Contains(s.ScaleTargets(), protocol.NodeID(st.Node)) {
				return fmt.Errorf("%w: %s of node %d before its scale step", nettrans.ErrBadManifest, st.Op, st.Node)
			}
			if st.Op == OpScale {
				if scaled[st.Node] {
					return fmt.Errorf("%w: node %d scaled twice", nettrans.ErrBadManifest, st.Node)
				}
				scaled[st.Node] = true
			}
		case OpDrain:
			drained = true
		default:
			return fmt.Errorf("%w: step %d has unknown op %q", nettrans.ErrBadManifest, i, st.Op)
		}
	}
	if len(scaled) > pp.F {
		// Absent slots read as crash faults until they boot; more than f
		// of them and the committee cannot agree in the meantime.
		return fmt.Errorf("%w: %d scale targets exceed f=%d", nettrans.ErrBadManifest, len(scaled), pp.F)
	}
	return nil
}

// ScaleTargets lists the slots held absent at boot (the scale steps'
// nodes), ascending by schedule order.
func (s ClusterSpec) ScaleTargets() []protocol.NodeID {
	var out []protocol.NodeID
	for _, st := range s.Steps {
		if st.Op == OpScale {
			out = append(out, protocol.NodeID(st.Node))
		}
	}
	return out
}

// Window is one step's non-correct interval [From, To) in ticks. A node
// counts as correct only Δnode after it starts running the protocol
// from a clean or corrupted state (a roll or a fault); a scaled slot is
// absent (a crash fault) until its step.
type Window struct {
	Op       string
	Node     int
	From, To int64
}

// FaultBudget is a schedule's load on the model, which promises
// agreement only while at most F nodes are non-correct at once: Peak
// distinct nodes are, first over [PeakFrom, PeakTo).
type FaultBudget struct {
	F, D             int64
	Windows          []Window
	Peak             int
	PeakFrom, PeakTo int64
}

// FaultBudget computes the schedule's windows and their peak overlap
// from the spec and its Params alone.
func (s ClusterSpec) FaultBudget() FaultBudget {
	pp := s.Manifest.Params()
	b := FaultBudget{F: int64(pp.F), D: int64(pp.D)}
	for _, st := range s.Steps {
		if st.Op != OpDrain {
			w := Window{st.Op, st.Node, st.At, st.At + int64(pp.DeltaNode())}
			if st.Op == OpScale {
				w.From = 0
			}
			b.Windows = append(b.Windows, w)
		}
	}
	// The count changes only at window edges: probe every start, and hold
	// its count until the first edge after it.
	for _, w := range b.Windows {
		nodes := make(map[int]bool)
		to := int64(math.MaxInt64)
		for _, o := range b.Windows {
			if o.From <= w.From && w.From < o.To {
				nodes[o.Node] = true
				to = min(to, o.To)
			} else if o.From > w.From {
				to = min(to, o.From)
			}
		}
		if len(nodes) > b.Peak || (len(nodes) == b.Peak && w.From < b.PeakFrom) {
			b.Peak, b.PeakFrom, b.PeakTo = len(nodes), w.From, to
		}
	}
	return b
}

// Steady lists the slots no step touches, ascending: the nodes correct
// for the whole campaign, which the battery judges.
func (s ClusterSpec) Steady() []protocol.NodeID {
	touched := make(map[int]bool)
	for _, w := range s.FaultBudget().Windows {
		touched[w.Node] = true
	}
	var out []protocol.NodeID
	for id := 0; id < s.Manifest.N; id++ {
		if !touched[id] {
			out = append(out, protocol.NodeID(id))
		}
	}
	return out
}

// Span renders [from, to) in units of d.
func (b FaultBudget) Span(from, to int64) string {
	return fmt.Sprintf("[%gd, %gd)", float64(from)/float64(b.D), float64(to)/float64(b.D))
}

func (b FaultBudget) String() string {
	verdict := "outside"
	if int64(b.Peak) <= b.F {
		verdict = "inside"
	}
	if b.Peak == 0 {
		return fmt.Sprintf("0 non-correct nodes against f = %d: schedule inside the model", b.F)
	}
	return fmt.Sprintf("%d non-correct nodes in %s against f = %d: schedule %s the model",
		b.Peak, b.Span(b.PeakFrom, b.PeakTo), b.F, verdict)
}

// ParseSpec decodes and validates a campaign spec.
func ParseSpec(blob []byte) (ClusterSpec, error) {
	var s ClusterSpec
	if err := json.Unmarshal(blob, &s); err != nil {
		return ClusterSpec{}, fmt.Errorf("ops: spec parse: %w", err)
	}
	if err := s.Validate(); err != nil {
		return ClusterSpec{}, err
	}
	return s, nil
}

// QuickSpec synthesizes the canonical boot→scale(+1)→roll(×1)→drain
// campaign for an n-node committee: slot n−1 boots late (scale-up at
// 10d), slot `roll` is replaced at 22d, and the fleet drains once the
// workload commits and the roll re-stabilizes. This is the spec behind
// ssbyz-cluster's quick form (wall clock or -virtual) and experiment V4.
func QuickSpec(n, roll int, d simtime.Duration, seed int64) ClusterSpec {
	return ClusterSpec{
		Manifest: nettrans.Manifest{
			N: n, D: d,
			EpochUnixNano: 1, // in-process campaigns ignore the wall epoch
			Nodes:         virtualAddrs(n),
		},
		Seed:    seed,
		Entries: 8,
		Steps: []Step{
			{Op: OpScale, Node: n - 1, At: int64(10 * d)},
			{Op: OpRoll, Node: roll, At: int64(22 * d)},
			{Op: OpDrain, At: int64(30 * d)},
		},
	}
}

// virtualAddrs fills the manifest's address table for in-process
// campaigns, where the cluster binds its own loopback sockets (wall) or
// in-memory endpoints (virtual) and the addresses are placeholders.
func virtualAddrs(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("virtual:%d", i)
	}
	return out
}
