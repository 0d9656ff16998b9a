package service

import (
	"ssbyz/internal/indexed"
	"ssbyz/internal/protocol"
	"ssbyz/internal/sim"
	"ssbyz/internal/simnet"
	"ssbyz/internal/simtime"
)

// SimConfig runs the service against the discrete-event simulator.
type SimConfig struct {
	// Scenario is the base world: Params, Seed, Faulty, Conditions, … .
	// NewNode and Drive are owned by the service runner; RunFor defaults
	// to a horizon that provably outlives the workload (see horizon).
	Scenario sim.Scenario
	// Sessions is the concurrent-invocation slot count per node
	// (footnote 9); 1 runs the plain single-session protocol of Fig. 1.
	Sessions int
	// QueueLimit bounds each log's pending buffer (default 4·Sessions).
	QueueLimit int
	// Poll is the pump's poll interval (default D/4).
	Poll simtime.Duration
	// Loads are the per-General open-loop clients.
	Loads []Workload
}

// SimResult is a finished simulated service run.
type SimResult struct {
	Res  *sim.Result
	Logs []*LogResult
}

// simBackend adapts the simulator world to the pump: virtual time and
// direct (in-scheduler-callback) initiation on the General's node.
type simBackend struct{ w *simnet.World }

func (b simBackend) Initiate(g protocol.NodeID, slots []int, v protocol.Value) (int, protocol.Value, error) {
	return InitiateFirst(b.w.Node(g), slots, v)
}

// RunSim executes the workload to completion in virtual time. Sessions > 1
// installs the indexed (footnote-9) node factory; Sessions == 1 keeps the
// plain core node, so a single-session service run is bit-identical to the
// pre-service protocol (the differential test pins this).
func RunSim(cfg SimConfig) (*SimResult, error) {
	sc := cfg.Scenario
	if sc.Params.N == 0 {
		sc.Params = protocol.DefaultParams(7)
	}
	sessions := cfg.Sessions
	if sessions < 1 {
		sessions = 1
	}
	if err := validateLoads(sc.Params, sc.Faulty, cfg.Loads); err != nil {
		return nil, err
	}
	if sc.NewNode == nil && sessions > 1 {
		sc.NewNode = func() protocol.Node { return indexed.NewNode(sessions) }
	}
	poll := cfg.Poll
	if poll <= 0 {
		poll = sc.Params.D / 4
	}
	if sc.RunFor == 0 {
		sc.RunFor = horizon(sc.Params, sessions, cfg.Loads)
	}

	var pump *Pump
	sc.Drive = func(w *simnet.World) {
		pump = NewPump(PumpConfig{
			Params:     sc.Params,
			Backend:    simBackend{w: w},
			Recorder:   w.Recorder(),
			Sessions:   sessions,
			QueueLimit: cfg.QueueLimit,
			Loads:      cfg.Loads,
		})
		var tick func()
		tick = func() {
			pump.Step(w.Now())
			if !pump.Idle() {
				w.Scheduler().At(w.Now()+simtime.Real(poll), tick)
			}
		}
		w.Scheduler().At(0, tick)
	}

	res, err := sim.Run(sc)
	if err != nil {
		return nil, err
	}
	return &SimResult{Res: res, Logs: pump.Results()}, nil
}

// horizon bounds the virtual time the workload needs: after the last
// arrival, each log still holds at most its queue of entries, admitted
// one per slot per Δ0 (IG1), each taking at most Δagr + 8d (IA-3C) —
// plus two slack rounds for poll granularity.
func horizon(pp protocol.Params, sessions int, loads []Workload) simtime.Duration {
	var last simtime.Real
	maxCount := 0
	for _, load := range loads {
		if n := len(load.Arrivals); n > 0 {
			if t := load.Arrivals[n-1]; t > last {
				last = t
			}
			if n > maxCount {
				maxCount = n
			}
		}
	}
	rounds := simtime.Duration((maxCount+sessions-1)/sessions + 2)
	return simtime.Duration(last) + rounds*pp.Delta0() + pp.DeltaAgr() + 16*pp.D
}
