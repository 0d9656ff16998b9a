package ops

import (
	"encoding/json"
	"fmt"

	"ssbyz/internal/nettrans"
	"ssbyz/internal/protocol"
	"ssbyz/internal/simtime"
)

// Step ops. A campaign is boot (implicit: every non-scale slot), then
// any number of scale/roll steps at scheduled ticks, then one drain.
const (
	// OpScale boots a slot that was held absent at cluster start — the
	// orchestrator's scale-up.
	OpScale = "scale"
	// OpRoll replaces a running node: stop, bump its incarnation epoch on
	// every peer, reboot. The campaign asserts re-stabilization within
	// Δstb = 2Δreset and that the old incarnation's frames are rejected.
	OpRoll = "roll"
	// OpDrain ends the campaign: once traffic has drained and every roll
	// has re-stabilized, stop the fleet.
	OpDrain = "drain"
)

// Step is one scheduled membership operation.
type Step struct {
	// Op is OpScale, OpRoll, or OpDrain.
	Op string `json:"op"`
	// Node is the scale/roll target (ignored for drain).
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
		case OpScale, OpRoll:
			if st.Node <= 0 || st.Node >= pp.N {
				// Node 0 is the traffic General the service pump drives; it
				// must stay up, so membership ops target [1, n).
				return fmt.Errorf("%w: %s of node %d outside [1,%d)", nettrans.ErrBadManifest, st.Op, st.Node, pp.N)
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
