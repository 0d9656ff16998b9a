package simnet

import (
	"fmt"

	"ssbyz/internal/protocol"
	"ssbyz/internal/simtime"
)

// This file implements the network-condition schedule: a deterministic,
// declarative script of transport-level disturbances — timed partitions,
// per-link jitter windows, and node churn — applied at delivery time.
// Conditions are pure functions of (virtual time, endpoints): they consume
// no randomness and touch no scheduler state, so a world with an empty
// schedule runs exactly as one with no schedule at all: New compiles
// nothing and fanOut skips the lookup.
//
// Model-legality matters here. Jitter only stretches delays WITHIN the
// configured [DelayMin, DelayMax] (clamped), so a jittered run still
// satisfies the paper's bounded-delay axiom and every proved property must
// hold. Partitions and churn DROP messages, which suspends the delivery
// axiom for the affected links: the property battery stays sound only if
// drops are confined to links touching faulty nodes, or to windows outside
// any agreement's active span — the scenario generator enforces exactly
// that (DESIGN.md §6).

// Condition kinds. The string form is the JSON vocabulary of scenario
// specs.
const (
	// CondPartition splits the nodes into Nodes vs the rest for the
	// window: messages crossing between the two groups (either direction)
	// whose arrival falls inside the window are dropped.
	CondPartition = "partition"
	// CondJitter adds Jitter extra delay, clamped into the network's
	// [DelayMin, DelayMax], to messages whose unjittered arrival falls in
	// the window; an empty Nodes list hits every link, otherwise only
	// links with an endpoint in Nodes.
	CondJitter = "jitter"
	// CondChurn detaches Nodes from the network for the window — a NIC
	// crash with recovery: nothing they send while down leaves, nothing
	// arriving while they are down is delivered. Local timers keep
	// running (the node's state survives, as a recovering node's must).
	CondChurn = "churn"
)

// Wire-level condition kinds: attacks and WAN emulation that only exist
// below the message abstraction — they manipulate encoded frames, epochs,
// and socket timing, so only the live and virtual-time runtimes (which
// run the wire codec) can execute them. The simulator REJECTS them:
// simulated messages have no bytes to corrupt, no epoch to replay across,
// and no source address to forge, and silently ignoring an attack would
// make a "clean" sim report a lie. The nettrans chaos layer compiles them
// (internal/nettrans/chaos.go) and counts, per class, both the injections
// and the codec/transport defenses that fired.
const (
	// CondWAN emulates a geo-distributed deployment for the window: Groups
	// partitions (a subset of) the nodes into regions, Matrix[a][b] is the
	// extra one-way base delay in ticks from region a to region b
	// (asymmetric routes allowed), Jitter bounds a deterministic per-frame
	// jitter on top, and Rate, when positive, caps each directed link at
	// Rate frames per d window (excess frames are deferred to the next
	// window). All added delay is clamped so total scripted delay stays
	// within d/2 — WAN emulation is environment, not attack, and must keep
	// the run inside the paper's bounded-delay model (clamps are counted).
	CondWAN = "wan"
	// CondDuplicate re-sends every Stride-th frame Copies extra times —
	// the at-least-once pathology of datagram networks. A copy carries
	// its original's link sequence number, and the transport's defense is
	// the receiver's anti-replay window (DupDrops); the protocol state
	// machines are idempotent under identical re-delivery anyway, so this
	// attack is legal on any link.
	CondDuplicate = "duplicate"
	// CondReorder holds every Stride-th frame back by Jitter ticks
	// (default d/2 at compile) without touching its send tick, forcing
	// delivery after later-sent frames. Reordering within the d bound is
	// absorbed by the event-driven protocol; a hold beyond d trips the
	// receiver's deadline drop — the bounded-delay axiom turns unbounded
	// reorder into plain loss.
	CondReorder = "reorder"
	// CondCorrupt flips one deterministic bit-pattern byte in every
	// Stride-th encoded frame leaving Nodes (the byte-level attacker on a
	// faulty node's NIC). Header hits are rejected by the codec's
	// magic/version/kind checks, payload hits by the message decoder's
	// bounds (DecodeDrops) — and a flip that still decodes is just an
	// arbitrary message from a faulty node, which the Byzantine model
	// already grants. Corrupting a correct node's frames would be message
	// loss on a correct link, so Nodes is required and the scenario
	// legality rule restricts it to faulty nodes.
	CondCorrupt = "corrupt"
	// CondReplay re-emits, on every Stride-th send by Nodes, an old
	// captured frame (≥ Lag ticks stale, default d+1 at compile) with its
	// ORIGINAL envelope — the recorded-traffic replay attack. With
	// CrossEpoch the replayed frame instead claims the next cluster
	// incarnation. Defenses, in pipeline order: the epoch check
	// (EpochDrops) for cross-incarnation frames, the d deadline
	// (LateDrops) for stale send ticks, and the anti-replay window for
	// fresh-enough replays, which carry their original's link sequence
	// number (DupDrops, or SeqStale once it fell behind the window).
	CondReplay = "replay"
	// CondForge emits, on every Stride-th send by Nodes, an extra copy of
	// the frame claiming a DIFFERENT sender id — the identity-forgery
	// attack on the paper's "the receiver knows the sending node of every
	// message" assumption. The transport's source-address authentication
	// rejects it (AuthDrops): the bytes claim node v, the socket says
	// otherwise.
	CondForge = "forge"
)

// WireLevel reports whether kind only exists below the message
// abstraction (frames, epochs, source addresses) and therefore cannot run
// under the simulator.
func WireLevel(kind string) bool {
	switch kind {
	case CondWAN, CondDuplicate, CondReorder, CondCorrupt, CondReplay, CondForge:
		return true
	}
	return false
}

// Condition is one scripted network disturbance. Windows are half-open
// [From, Until) in virtual real time. The zero value is invalid — every
// condition names a Kind.
type Condition struct {
	Kind string `json:"kind"`
	// From / Until bound the active window, [From, Until).
	From  simtime.Real `json:"from"`
	Until simtime.Real `json:"until"`
	// Nodes is the partitioned group, the churned set, the jitter scope
	// (empty = all links; partition and churn require it), or — for the
	// wire-level attack kinds corrupt/replay/forge — the attacker set
	// whose outgoing frames are manipulated (required, and restricted to
	// faulty nodes by the scenario legality rule).
	Nodes []protocol.NodeID `json:"nodes,omitempty"`
	// Jitter is the extra delay of a jitter window, the per-frame jitter
	// bound of a wan window, or the hold delay of a reorder window.
	Jitter simtime.Duration `json:"jitter,omitempty"`
	// Groups are the wan regions: disjoint node sets (nodes in no group
	// see no base delay). Only CondWAN uses it.
	Groups [][]protocol.NodeID `json:"groups,omitempty"`
	// Matrix is the wan base-delay matrix in ticks: Matrix[a][b] is added
	// to frames from region a to region b. Must be len(Groups)² and
	// non-negative. Only CondWAN uses it.
	Matrix [][]simtime.Duration `json:"matrix,omitempty"`
	// Rate, when positive, caps each directed link at Rate frames per d
	// window inside a wan window; excess frames defer to the next window.
	Rate int `json:"rate,omitempty"`
	// Stride makes an attack kind act on every Stride-th frame of a link
	// (0 and 1 mean every frame).
	Stride int `json:"stride,omitempty"`
	// Copies is the number of extra copies a duplicate window emits
	// (0 means 1).
	Copies int `json:"copies,omitempty"`
	// Lag is the minimum staleness in ticks of the frame a replay window
	// re-emits (0 means d+1 at compile: stale enough to trip the deadline
	// drop).
	Lag simtime.Duration `json:"lag,omitempty"`
	// CrossEpoch makes a replay window claim the next cluster incarnation
	// instead of re-emitting a stale frame of this one.
	CrossEpoch bool `json:"cross_epoch,omitempty"`
}

// compiledCond is a Condition with membership resolved to an O(1) lookup.
type compiledCond struct {
	kind        string
	from, until simtime.Real
	member      []bool // indexed by NodeID; nil = every node
	jitter      simtime.Duration
}

func (c *compiledCond) active(at simtime.Real) bool {
	return at >= c.from && at < c.until
}

func (c *compiledCond) has(id protocol.NodeID) bool {
	return c.member == nil || (int(id) < len(c.member) && c.member[int(id)])
}

// ValidateCondition structurally validates one condition against the
// cluster size. live selects the vocabulary: the wire-level attack kinds
// only pass when live is true (the simulator has no bytes to attack).
// Legality — which nodes an attack may name — is the scenario engine's
// job; this check is purely structural.
func ValidateCondition(i int, c Condition, n int, live bool) error {
	switch c.Kind {
	case CondPartition, CondChurn:
		if len(c.Nodes) == 0 {
			return fmt.Errorf("condition %d (%s) needs a node set", i, c.Kind)
		}
	case CondJitter:
		if c.Jitter < 0 {
			return fmt.Errorf("condition %d has negative jitter", i)
		}
	case CondWAN, CondDuplicate, CondReorder, CondCorrupt, CondReplay, CondForge:
		if !live {
			return fmt.Errorf("condition %d kind %q is wire-level — live/virtual runtimes only (the simulator has no frames to attack)", i, c.Kind)
		}
		if err := validateWireCondition(i, c, n); err != nil {
			return err
		}
	default:
		return fmt.Errorf("condition %d has unknown kind %q", i, c.Kind)
	}
	if c.Until <= c.From {
		return fmt.Errorf("condition %d window [%d,%d) is empty", i, c.From, c.Until)
	}
	for _, id := range c.Nodes {
		if id < 0 || int(id) >= n {
			return fmt.Errorf("condition %d names node %d outside [0,%d)", i, id, n)
		}
	}
	return nil
}

// validateWireCondition checks the attack-specific fields of a
// wire-level condition.
func validateWireCondition(i int, c Condition, n int) error {
	if c.Stride < 0 || c.Copies < 0 || c.Rate < 0 || c.Lag < 0 || c.Jitter < 0 {
		return fmt.Errorf("condition %d (%s) has a negative field", i, c.Kind)
	}
	switch c.Kind {
	case CondWAN:
		if len(c.Groups) == 0 {
			return fmt.Errorf("condition %d (wan) needs regions in Groups", i)
		}
		seen := make([]bool, n)
		for gi, grp := range c.Groups {
			if len(grp) == 0 {
				return fmt.Errorf("condition %d (wan) region %d is empty", i, gi)
			}
			for _, id := range grp {
				if id < 0 || int(id) >= n {
					return fmt.Errorf("condition %d (wan) region %d names node %d outside [0,%d)", i, gi, id, n)
				}
				if seen[id] {
					return fmt.Errorf("condition %d (wan) places node %d in two regions", i, id)
				}
				seen[id] = true
			}
		}
		if len(c.Matrix) != len(c.Groups) {
			return fmt.Errorf("condition %d (wan) matrix is %d×? for %d regions", i, len(c.Matrix), len(c.Groups))
		}
		for a, row := range c.Matrix {
			if len(row) != len(c.Groups) {
				return fmt.Errorf("condition %d (wan) matrix row %d has %d entries for %d regions", i, a, len(row), len(c.Groups))
			}
			for b, d := range row {
				if d < 0 {
					return fmt.Errorf("condition %d (wan) matrix[%d][%d] is negative", i, a, b)
				}
			}
		}
	case CondDuplicate:
		if c.Copies > 8 {
			return fmt.Errorf("condition %d (duplicate) emits %d copies, max 8", i, c.Copies)
		}
	case CondCorrupt, CondReplay, CondForge:
		if len(c.Nodes) == 0 {
			return fmt.Errorf("condition %d (%s) needs an attacker node set", i, c.Kind)
		}
	}
	return nil
}

// compileConditions validates the schedule against the world size and
// resolves node sets to bitmaps. The wire-level attack kinds are
// rejected here: a simulated message has no bytes, epoch, or source
// address, and silently skipping an attack would falsify the report.
func compileConditions(conds []Condition, n int) ([]compiledCond, error) {
	out := make([]compiledCond, 0, len(conds))
	for i, c := range conds {
		if err := ValidateCondition(i, c, n, false); err != nil {
			return nil, fmt.Errorf("simnet: %w", err)
		}
		cc := compiledCond{kind: c.Kind, from: c.From, until: c.Until, jitter: c.Jitter}
		if len(c.Nodes) > 0 {
			cc.member = make([]bool, n)
			for _, id := range c.Nodes {
				cc.member[int(id)] = true
			}
		}
		out = append(out, cc)
	}
	return out, nil
}

// applyConditions resolves the schedule for one message: the possibly
// jittered delay and whether an active partition or churn window eats the
// message. All windows are evaluated against deterministic instants — the
// send time (churn on the sender: a detached node cannot emit) and the
// UNjittered arrival instant (partitions, churn on the receiver, jitter
// scope) — so condition effects never feed back into their own window
// tests and replays are exact. Jitter accumulates across overlapping
// windows and is clamped into [DelayMin, DelayMax] at the end, keeping the
// run inside the paper's bounded-delay model.
func (w *World) applyConditions(from, to protocol.NodeID, delay simtime.Duration) (simtime.Duration, bool) {
	now := w.sch.Now()
	arrive := now + simtime.Real(delay)
	adjusted := delay
	for i := range w.conds {
		c := &w.conds[i]
		switch c.kind {
		case CondPartition:
			if c.active(arrive) && c.has(from) != c.has(to) {
				return delay, true
			}
		case CondChurn:
			if (c.has(from) && c.active(now)) || (c.has(to) && c.active(arrive)) {
				return delay, true
			}
		case CondJitter:
			if c.active(arrive) && (c.member == nil || c.has(from) || c.has(to)) {
				adjusted += c.jitter
			}
		}
	}
	return w.clampDelay(adjusted), false
}

// ConditionDrops returns how many sent messages the condition schedule has
// dropped so far (partition and churn windows). Dropped messages still
// count as sent in MessageCount — the sender paid for them; the network
// ate them. The counter is deterministic for a given (config, seed).
func (w *World) ConditionDrops() int64 { return w.condDrops }
