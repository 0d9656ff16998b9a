// Package ops is the cluster operations layer: the control plane that
// turns a running ss-Byz-Agree node into something an operator (or the
// ssbyz-cluster orchestrator) can observe and steer while the protocol
// is live. It is built on the one property the paper proves that makes
// day-2 operations safe at all — self-stabilization: from an arbitrary
// state the system re-converges within Δstb = 2Δreset, so a node that
// is stopped, replaced, and rebooted at a higher incarnation is just
// another transient fault the protocol already recovers from, and the
// ops layer's job is to expose that recovery (health states, events,
// counters) and to prove it end to end (the roll campaign).
//
// The surface mirrors the libpod/podman server shape: a per-node REST
// API (/healthz, /metrics, /events as NDJSON, /trace, POST initiate/
// fault/drain/stop/bump-epoch — http.go), a health-state machine derived from
// the node's actual protocol trace and transport counters (this file),
// and a declarative cluster spec the orchestrator executes as a
// boot→scale→roll→drain campaign (spec.go, campaign.go) in process or
// over REST (restfleet.go, with the process launcher of fleet.go). Everything
// runs identically under the injected virtual clock, which is how the
// campaign joins the deterministic experiment suite as V4.
package ops

import (
	"fmt"
	"sync"

	"ssbyz/internal/nettrans"
	"ssbyz/internal/protocol"
	"ssbyz/internal/simtime"
)

// NodeBackend is the node-side surface the control plane drives: the
// daemon implements it over its NetNode (backend.go), tests over stubs.
type NodeBackend interface {
	// ID is this node's committee identity.
	ID() protocol.NodeID
	// Params are the protocol constants (Δstb budgets derive from them).
	Params() protocol.Params
	// NowTicks is the node's clock reading in ticks since the epoch.
	NowTicks() simtime.Real
	// Stats is the live 16-counter transport vector.
	Stats() nettrans.Stats
	// Incarnation is the node's current incarnation number.
	Incarnation() uint64
	// Initiate starts agreement on v in the given concurrent-invocation
	// slot (slot 0 on single-session nodes); IG1–IG3 refusals come back
	// as errors.
	Initiate(slot int, v protocol.Value) error
	// InjectFault corrupts the RUNNING protocol state in place — the
	// paper's transient-fault model, applied inside the event loop.
	InjectFault(seed int64, severityPermille, inFlight int) error
	// BumpPeerEpoch raises the expected incarnation of a peer (a roll in
	// progress); backwards moves fail with nettrans.ErrEpochSkew.
	BumpPeerEpoch(peer protocol.NodeID, incarnation uint64) error
	// TraceEvents is every trace event this node has recorded so far, in
	// recording order (the GET /trace body).
	TraceEvents() []protocol.TraceEvent
}

// State is one of the three operational health states /healthz reports.
type State string

const (
	// StateStabilized: the node has evidence of convergence — a decide
	// observed with no fault pending, or Δstb of quiet since boot (the
	// theorem's budget with nothing left to converge from).
	StateStabilized State = "stabilized"
	// StateRestabilizing: the node is inside a convergence window — just
	// booted, or a transient fault / roll was injected and no decide has
	// landed since. The paper bounds this window by Δstb = 2Δreset.
	StateRestabilizing State = "re-stabilizing"
	// StatePartitioned: the transport is sending but nothing has arrived
	// since the previous health scrape — the node is cut off from the
	// committee and cannot converge until connectivity returns.
	StatePartitioned State = "partitioned"
)

// partitionSendFloor is how many sends must go unanswered between two
// health scrapes before the node calls itself partitioned; below it the
// scrape window was too quiet to judge.
const partitionSendFloor = 8

// Control is the per-node health-state machine and event source: the
// node's trace sink feeds Observe, operations (faults, rolls, epoch
// bumps) feed the Mark methods, and the REST layer reads Health and
// Metrics and streams the Bus.
type Control struct {
	be  NodeBackend
	bus *Bus

	mu         sync.Mutex
	state      State
	decides    int64
	suspicions int64
	lastDecide simtime.Real
	faultAt    simtime.Real // tick of the pending fault/roll; -1 when none
	lastSent   int64        // previous health scrape, for partition detection
	lastRecv   int64
}

// NewControl builds the state machine in its boot state: re-stabilizing,
// because a node fresh from arbitrary state has no evidence of
// convergence until a decide lands or Δstb passes.
func NewControl(be NodeBackend) *Control {
	return &Control{
		be:         be,
		bus:        NewBus(),
		state:      StateRestabilizing,
		lastDecide: -1,
		faultAt:    -1,
	}
}

// Bus returns the node's event bus (the /events source).
func (c *Control) Bus() *Bus { return c.bus }

// Close shuts the event bus down: every subscriber's channel closes, so
// in-flight /events streams end with a clean EOF. Part of the daemon's
// shutdown ordering contract — Close runs BEFORE transports come down.
func (c *Control) Close() { c.bus.Close() }

// Observe taps one trace event from the node's sink: decides move the
// machine to stabilized (and clear a pending fault window), aborts are
// published as suspicions. Cheap by design — it runs on the node's
// event-loop path.
func (c *Control) Observe(ev protocol.TraceEvent) {
	switch ev.Kind {
	case protocol.EvDecide:
		c.mu.Lock()
		c.decides++
		c.lastDecide = ev.RT
		transitioned := c.state != StateStabilized
		c.state = StateStabilized
		c.faultAt = -1
		c.mu.Unlock()
		c.bus.Publish(Event{Type: "decide", Node: int(ev.Node), Tick: int64(ev.RT),
			Attrs: map[string]string{"g": fmt.Sprint(ev.G), "value": string(ev.M)}})
		if transitioned {
			c.bus.Publish(Event{Type: "stabilized", Node: int(ev.Node), Tick: int64(ev.RT)})
		}
	case protocol.EvAbort:
		c.mu.Lock()
		c.suspicions++
		c.mu.Unlock()
		c.bus.Publish(Event{Type: "suspicion", Node: int(ev.Node), Tick: int64(ev.RT),
			Attrs: map[string]string{"g": fmt.Sprint(ev.G)}})
	}
}

// MarkFault opens a convergence window: a transient fault was injected
// (or the node was rolled), so the machine reports re-stabilizing until
// the next decide. kind names the cause in the published event.
func (c *Control) MarkFault(kind string, attrs map[string]string) {
	now := c.be.NowTicks()
	c.mu.Lock()
	c.state = StateRestabilizing
	c.faultAt = now
	c.mu.Unlock()
	c.bus.Publish(Event{Type: kind, Node: int(c.be.ID()), Tick: int64(now), Attrs: attrs})
	c.bus.Publish(Event{Type: "re-stabilizing", Node: int(c.be.ID()), Tick: int64(now)})
}

// MarkEpoch publishes an incarnation-epoch change (a peer's roll).
func (c *Control) MarkEpoch(peer protocol.NodeID, incarnation uint64) {
	c.bus.Publish(Event{Type: "epoch", Node: int(c.be.ID()), Tick: int64(c.be.NowTicks()),
		Attrs: map[string]string{"peer": fmt.Sprint(peer), "incarnation": fmt.Sprint(incarnation)}})
}

// Health is the /healthz body: the derived state plus the numbers it
// was derived from.
type Health struct {
	State       State  `json:"state"`
	Node        int    `json:"node"`
	Tick        int64  `json:"tick"`
	Incarnation uint64 `json:"incarnation"`
	Decides     int64  `json:"decides"`
	// SinceFault is ticks since the pending fault/roll, -1 when none —
	// compare against DeltaStb to see how much budget is left.
	SinceFault int64 `json:"since_fault_ticks"`
	// DeltaStb is the stabilization budget 2Δreset in ticks.
	DeltaStb int64 `json:"delta_stb_ticks"`
}

// Health derives the current operational state. The machine prefers bad
// news: a partition verdict (transport sending into silence since the
// last scrape) overrides everything, then a pending fault window, then
// the stabilized/boot logic.
func (c *Control) Health() Health {
	now := c.be.NowTicks()
	st := c.be.Stats()
	pp := c.be.Params()
	c.mu.Lock()
	defer c.mu.Unlock()
	dSent, dRecv := st.Sent-c.lastSent, st.Received-c.lastRecv
	c.lastSent, c.lastRecv = st.Sent, st.Received
	state := c.state
	if state == StateRestabilizing && c.faultAt < 0 && c.decides == 0 &&
		simtime.Duration(now) >= pp.DeltaStb() {
		// Quiet boot past the theorem's budget: with no fault pending and
		// no traffic to disagree about, the system has converged.
		c.state = StateStabilized
		state = StateStabilized
	}
	if c.faultAt >= 0 {
		state = StateRestabilizing
	}
	if dSent >= partitionSendFloor && dRecv == 0 {
		state = StatePartitioned
	}
	sinceFault := int64(-1)
	if c.faultAt >= 0 {
		sinceFault = int64(now - c.faultAt)
	}
	return Health{
		State:       state,
		Node:        int(c.be.ID()),
		Tick:        int64(now),
		Incarnation: c.be.Incarnation(),
		Decides:     c.decides,
		SinceFault:  sinceFault,
		DeltaStb:    int64(pp.DeltaStb()),
	}
}

// Metrics is the /metrics body: the nettrans counter vector by name
// plus the service-level throughput the control plane itself observed.
type Metrics struct {
	Node        int              `json:"node"`
	Tick        int64            `json:"tick"`
	State       State            `json:"state"`
	Incarnation uint64           `json:"incarnation"`
	Decides     int64            `json:"decides"`
	Suspicions  int64            `json:"suspicions"`
	Counters    map[string]int64 `json:"counters"`
}

// Metrics snapshots the node's observable numbers.
func (c *Control) Metrics() Metrics {
	st := c.be.Stats()
	vec := st.Counters()
	counters := make(map[string]int64, len(vec))
	for i, name := range nettrans.CounterNames {
		counters[name] = vec[i]
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Metrics{
		Node:        int(c.be.ID()),
		Tick:        int64(c.be.NowTicks()),
		State:       c.state,
		Incarnation: c.be.Incarnation(),
		Decides:     c.decides,
		Suspicions:  c.suspicions,
		Counters:    counters,
	}
}
