package ssbyz

import (
	"errors"
	"fmt"
	"time"

	"ssbyz/internal/core"
	"ssbyz/internal/livenet"
	"ssbyz/internal/protocol"
)

// LiveCluster runs ss-Byz-Agree in real time: one goroutine per node,
// in-process channels with randomized wall-clock delays bounded by the
// paper's d (LiveConfig.D × Tick). It is the configuration a service
// embedding the library would start from; the message-driven rounds mean
// agreements complete at actual channel speed, not at the d worst case
// (the paper's headline claim).
type LiveCluster struct {
	c     *livenet.Cluster
	pp    Params
	tick  time.Duration
	nodes []*core.Node
}

// LiveConfig describes a live cluster: n nodes tolerating f = ⌊(n−1)/3⌋
// Byzantine faults, with the paper's delivery bound d expressed as D
// ticks of wall-clock length Tick.
type LiveConfig struct {
	// N is the number of nodes (default 4).
	N int
	// D is the delivery bound in ticks (default 50).
	D Ticks
	// Tick is the wall-clock length of one tick (default 100µs, making
	// the default d = 5ms).
	Tick time.Duration
	// Seed drives the artificial delay randomness.
	Seed int64
}

// NewLiveCluster assembles and starts a live cluster of correct nodes
// (validating the paper's n > 3f precondition). Callers must Stop it.
func NewLiveCluster(cfg LiveConfig) (*LiveCluster, error) {
	if cfg.N == 0 {
		cfg.N = 4
	}
	pp := protocol.DefaultParams(cfg.N)
	if cfg.D > 0 {
		pp.D = cfg.D
	} else {
		pp.D = 50
	}
	if err := pp.Validate(); err != nil {
		return nil, fmt.Errorf("ssbyz: %w", err)
	}
	c, err := livenet.New(livenet.Config{Params: pp, Tick: cfg.Tick, Seed: cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("ssbyz: %w", err)
	}
	lc := &LiveCluster{c: c, pp: pp, tick: cfg.Tick, nodes: make([]*core.Node, pp.N)}
	if lc.tick == 0 {
		lc.tick = 100 * time.Microsecond
	}
	for i := 0; i < pp.N; i++ {
		lc.nodes[i] = core.NewNode()
		c.SetNode(protocol.NodeID(i), lc.nodes[i])
	}
	c.Start()
	return lc, nil
}

// Params returns the resolved protocol constants (n, f, d and the
// derived Δ bounds of the paper's Section 3).
func (lc *LiveCluster) Params() Params { return lc.pp }

// Stop shuts down every node goroutine and pending timer (including the
// periodic Δrmv decay sweeps).
func (lc *LiveCluster) Stop() { lc.c.Stop() }

// Initiate asks node g to act as the General and start agreement on v.
// The error reflects the sending-validity criteria IG1–IG3.
func (lc *LiveCluster) Initiate(g NodeID, v Value) error {
	errCh := make(chan error, 1)
	lc.c.DoWait(g, func(n protocol.Node) {
		errCh <- n.(*core.Node).InitiateAgreement(v)
	})
	select {
	case err := <-errCh:
		return err
	default:
		return errors.New("ssbyz: cluster stopped")
	}
}

// Await blocks until every node has returned for General g or the timeout
// elapses (the paper bounds the return by Δagr past the invocation,
// Timeliness-3). It returns the unanimous decided value, or an error on
// abort, value split (a violation of the Agreement property, impossible
// for a correct build), or timeout.
func (lc *LiveCluster) Await(g NodeID, timeout time.Duration) (Value, error) {
	return awaitUnanimous(lc.pp.N, timeout, lc.tick*10, func(i int, fn func(protocol.Node)) {
		lc.c.DoWait(NodeID(i), fn)
	}, g)
}

// awaitUnanimous polls every node's return for General g through the
// given event-loop executor until all have returned (the Agreement
// property then requires one value) or the deadline passes.
func awaitUnanimous(n int, timeout, pollEvery time.Duration,
	doWait func(i int, fn func(protocol.Node)), g NodeID) (Value, error) {
	deadline := time.Now().Add(timeout)
	for {
		values := make(map[Value]int)
		returned := 0
		for i := 0; i < n; i++ {
			var ret, dec bool
			var v Value
			doWait(i, func(nd protocol.Node) {
				ret, dec, v = nd.(*core.Node).Result(g)
			})
			if ret {
				returned++
				if dec {
					values[v]++
				}
			}
		}
		if returned == n {
			switch len(values) {
			case 0:
				return Bottom, errors.New("ssbyz: all nodes aborted")
			case 1:
				for v := range values {
					if values[v] == n {
						return v, nil
					}
					return v, fmt.Errorf("ssbyz: %d/%d nodes decided %q, rest aborted", values[v], n, v)
				}
			default:
				return Bottom, fmt.Errorf("ssbyz: value split across nodes: %v", values)
			}
		}
		if time.Now().After(deadline) {
			return Bottom, fmt.Errorf("ssbyz: timeout with %d/%d nodes returned", returned, n)
		}
		time.Sleep(pollEvery)
	}
}

// SocketConfig describes a real-socket loopback cluster: n nodes
// tolerating f = ⌊(n−1)/3⌋ Byzantine faults, every message crossing a
// real UDP or TCP socket through the binary wire codec, with the paper's
// delivery bound d expressed as D ticks of wall-clock length Tick.
type SocketConfig struct {
	// N is the number of nodes (default 4).
	N int
	// D is the delivery bound d in ticks (default 100). On UDP the
	// transport enforces it: frames older than d are dropped, because the
	// paper's model delivers within d or not at all.
	D Ticks
	// Tick is the wall-clock length of one tick (default 100µs, making
	// the default d = 10ms).
	Tick time.Duration
	// Transport is "udp" (datagram-per-message, loss allowed — the
	// paper-faithful default) or "tcp" (lossless stream baseline).
	Transport string
}

// SocketCluster runs ss-Byz-Agree over real sockets on loopback: the
// same protocol state machines as Simulation and LiveCluster, but every
// message is serialized by the wire codec, authenticated by source
// address, and subject to the transport's enforcement of the paper's
// bounded-delay axiom (DESIGN.md §7). It is the single-process form of
// the cmd/ssbyz-node daemon topology.
//
// Deprecated: SocketCluster is a thin shim over Engine, kept for
// existing callers; new code uses New with SocketRuntime and Start.
type SocketCluster struct {
	eng *Engine
}

// NewSocketCluster assembles and starts a loopback socket cluster of
// correct nodes (validating the paper's n > 3f precondition; failures
// wrap ErrBadParams). Callers must Stop it.
func NewSocketCluster(cfg SocketConfig) (*SocketCluster, error) {
	opts := []Option{WithRuntime(SocketRuntime(cfg.Transport, cfg.Tick))}
	if cfg.N > 0 {
		opts = append(opts, WithN(cfg.N))
	} else {
		opts = append(opts, WithN(4))
	}
	if cfg.D > 0 {
		opts = append(opts, WithD(cfg.D))
	}
	eng, err := New(opts...)
	if err != nil {
		return nil, err
	}
	if err := eng.Start(); err != nil {
		return nil, err
	}
	return &SocketCluster{eng: eng}, nil
}

// Params returns the resolved protocol constants (n, f, d and the
// derived Δ bounds of the paper's Section 3).
func (sc *SocketCluster) Params() Params { return sc.eng.pp }

// Stop shuts down every node: protocol timers, sockets, event loops.
// After Stop returns nothing is running (the eventloop Stop gate —
// required for the self-stabilizing protocol's dense timer traffic).
func (sc *SocketCluster) Stop() { sc.eng.Stop() }

// Initiate asks node g to act as the General and start agreement on v
// over the sockets, recording the traced initiation instant as the t0
// of Check's Validity window. The error reflects the sending-validity
// criteria IG1–IG3.
func (sc *SocketCluster) Initiate(g NodeID, v Value) error {
	if err := sc.eng.initiateLive(g, 0, v); err != nil {
		return fmt.Errorf("ssbyz: %w", err)
	}
	return nil
}

// Await blocks until every node has returned for General g or the
// timeout elapses (Timeliness-3 bounds the return by Δagr past the
// invocation) and returns the unanimous decided value.
func (sc *SocketCluster) Await(g NodeID, timeout time.Duration) (Value, error) {
	return sc.eng.Await(g, timeout)
}

// Check runs the full property battery (Agreement, Timeliness, IA/TPS
// bounds, plus each Initiate's Validity window) over the trace collected
// so far. A correct build over a healthy loopback returns none.
func (sc *SocketCluster) Check() []Violation {
	return sc.eng.CheckLive()
}
