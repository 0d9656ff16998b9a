package service

import (
	"errors"
	"fmt"
	"time"

	"ssbyz/internal/clock"
	"ssbyz/internal/indexed"
	"ssbyz/internal/nettrans"
	"ssbyz/internal/protocol"
	"ssbyz/internal/sim"
	"ssbyz/internal/simnet"
	"ssbyz/internal/simtime"
)

// LiveConfig runs the service against an in-process loopback socket
// cluster: the same pump as the simulator, but time is wall-clock ticks
// and initiations ride the kernel's network stack.
type LiveConfig struct {
	Params     protocol.Params
	Tick       time.Duration // wall-clock tick length (default 100µs)
	Transport  string        // nettrans.TransportUDP (default) or TCP
	Sessions   int           // concurrent slots per General (footnote 9)
	QueueLimit int           // bounded pending buffer (default 4·Sessions)
	Faulty     map[protocol.NodeID]protocol.Node
	Conditions []simnet.Condition
	// Clock switches the run to virtual time when it is a *clock.Fake:
	// the cluster uses the deterministic in-memory wire and RunLive
	// drives the fake clock instead of waiting on the wall (nil = wall).
	Clock clock.Clock
	// Seed drives the virtual wire's delivery delays (virtual path only).
	Seed int64
}

// LiveResult is a finished live service run.
type LiveResult struct {
	Res   *sim.Result
	Logs  []*LogResult
	Stats nettrans.Stats
}

// ClusterBackend drives the pump through a nettrans cluster: each entry
// is one DoWait into the General's event loop running InitiateFirst, so
// refused slots cost no extra round trip. IG refusals pass through for
// the pump's retry logic; a stopped General fails the entry.
type ClusterBackend struct{ C *nettrans.Cluster }

// Initiate implements Backend; slots must be non-empty.
func (b ClusterBackend) Initiate(g protocol.NodeID, slots []int, v protocol.Value) (int, protocol.Value, error) {
	type started struct {
		slot int
		wire protocol.Value
		err  error
	}
	ch := make(chan started, 1)
	b.C.DoWait(g, func(n protocol.Node) {
		slot, wire, err := InitiateFirst(n, slots, v)
		ch <- started{slot, wire, err}
	})
	select {
	case s := <-ch:
		return s.slot, s.wire, s.err
	default:
		return slots[0], "", errors.New("service: cluster stopped")
	}
}

// RunLive executes the workload against a loopback cluster until the
// pump drains or the timeout passes. Arrival instants in the loads are in
// ticks of cfg.Tick, like every protocol constant. The trace comes back
// in sim.Result form for the battery.
func RunLive(cfg LiveConfig, loads []Workload, timeout time.Duration) (*LiveResult, error) {
	sessions := cfg.Sessions
	if sessions < 1 {
		sessions = 1
	}
	if err := validateLoads(cfg.Params, cfg.Faulty, loads); err != nil {
		return nil, err
	}
	ccfg := nettrans.ClusterConfig{
		Params:     cfg.Params,
		Tick:       cfg.Tick,
		Transport:  cfg.Transport,
		Faulty:     cfg.Faulty,
		Conditions: cfg.Conditions,
		Clock:      cfg.Clock,
		Seed:       cfg.Seed,
	}
	if sessions > 1 {
		ccfg.NewNode = func() protocol.Node { return indexed.NewNode(sessions) }
	}
	c, err := nettrans.NewCluster(ccfg)
	if err != nil {
		return nil, err
	}
	defer c.Stop()

	pump := NewPump(PumpConfig{
		Params:     cfg.Params,
		Backend:    ClusterBackend{C: c},
		Recorder:   c.Recorder(),
		Sessions:   sessions,
		QueueLimit: cfg.QueueLimit,
		Loads:      loads,
	})
	d := time.Duration(cfg.Params.D) * c.Tick()
	if fake := c.Virtual(); fake != nil {
		// Virtual time keeps the simulator's quarter-d cadence: each poll
		// is an Advance of the fake clock, the timeout a virtual-time
		// budget, and the whole drive deterministic.
		quarter := time.Duration(cfg.Params.D) / 4 * c.Tick()
		if quarter <= 0 {
			quarter = time.Millisecond
		}
		horizon := simtime.Duration(c.NowTicks()) + simtime.Duration(timeout/c.Tick())
		for {
			pump.Step(c.NowTicks())
			if pump.Idle() {
				break
			}
			if simtime.Duration(c.NowTicks()) >= horizon {
				return nil, fmt.Errorf("service: live workload did not drain within %v of virtual time", timeout)
			}
			fake.Advance(quarter)
		}
		fake.Advance(2 * d)
	} else {
		if !drive(c, pump, time.Now().Add(timeout)) {
			return nil, fmt.Errorf("service: live workload did not drain within %v", timeout)
		}
		// The General's own return leads its peers' by ≤ 2d: freeze the
		// trace once every correct node has returned every commit.
		settle(c, pump.Results(), time.Now().Add(2*d))
	}
	horizon := simtime.Duration(c.NowTicks())
	res := c.Result(horizon)
	return &LiveResult{Res: res, Logs: pump.Results(), Stats: c.Stats()}, nil
}

// drive steps the pump on the wall clock until it is idle (true) or the
// deadline passes (false), sleeping between steps until the pump's
// NextWake or the next decide return, whichever comes first.
func drive(c *nettrans.Cluster, pump *Pump, deadline time.Time) bool {
	rec := c.Recorder()
	for {
		// Take the signal before Step reads the recorder: a decide traced
		// after the harvest still wakes the wait below.
		decided := rec.Notify(protocol.EvDecide)
		now := c.NowTicks()
		pump.Step(now)
		if pump.Idle() {
			return true
		}
		wait := time.Until(deadline)
		if wait <= 0 {
			return false
		}
		if wake := pump.NextWake(now); wake != Never {
			wait = min(wait, time.Duration(wake-c.NowTicks())*c.Tick())
		}
		sleepOn(decided, wait)
	}
}

// settle waits until every correct node has traced the decide return of
// every committed entry, or until the deadline.
func settle(c *nettrans.Cluster, logs []*LogResult, deadline time.Time) {
	type decideKey struct {
		wireKey
		node protocol.NodeID
	}
	committed := make(map[wireKey]bool)
	for _, lr := range logs {
		for _, e := range lr.Committed {
			committed[wireKey{g: lr.G, wire: e.Wire}] = true
		}
	}
	correct := make(map[protocol.NodeID]bool)
	for _, id := range c.Correct() {
		correct[id] = true
	}
	missing := len(committed) * len(correct)
	seen := make(map[decideKey]bool, missing)
	rec := c.Recorder()
	cursor := 0
	for {
		decided := rec.Notify(protocol.EvDecide)
		cursor = rec.ForEachKindFrom(protocol.EvDecide, cursor, func(ev protocol.TraceEvent) {
			k := decideKey{wireKey{g: ev.G, wire: ev.M}, ev.Node}
			if committed[k.wireKey] && correct[ev.Node] && !seen[k] {
				seen[k] = true
				missing--
			}
		})
		wait := time.Until(deadline)
		if missing == 0 || wait <= 0 {
			return
		}
		sleepOn(decided, wait)
	}
}

// sleepOn blocks for at most d, returning early when signal fires.
func sleepOn(signal <-chan struct{}, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-signal:
	case <-t.C:
	}
}
