package ops

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"time"

	"ssbyz/internal/nettrans"
	"ssbyz/internal/protocol"
	"ssbyz/internal/simtime"
)

// Launcher is the lifecycle half of a REST fleet. Fleet launches
// ssbyz-node processes; a test launcher hosts each daemon's Server in
// one process behind an in-memory RoundTripper.
type Launcher interface {
	Spawn(ids ...int) error                       // boot slots at their current incarnations
	Client(id int) *Client                        // slot id's REST client
	WaitExit(id int, timeout time.Duration) error // after its /stop or /drain
	Reincarnate(id int) uint64                    // advance slot id's incarnation for its next Spawn
	NowTicks() int64                              // the fleet clock, in ticks since the epoch
	Probe(from, to int, incarnation uint64) error // slot from's replay probe at an old incarnation, to slot to
	Close()                                       // kill whatever still runs, release the fleet
}

// restFleet is the CampaignFleet over REST: one Client per daemon, the
// lifecycle by a Launcher. Sync pulls each daemon's new trace records
// (GET /trace?from=<cursor>) into a local recorder the pump harvests.
type restFleet struct {
	l      Launcher
	rec    *protocol.Recorder
	pulled map[protocol.NodeID]int // running slot -> records pulled from its current life
}

// NewRESTFleet boots every slot of the spec's committee except its
// scale targets, one daemon at a time, and returns the fleet that
// drives them over REST. The daemons run single-session core nodes, so
// each entry takes slot 0 under its own value. It closes l on failure.
func NewRESTFleet(l Launcher, spec ClusterSpec) (CampaignFleet, error) {
	f := &restFleet{l: l, rec: protocol.NewRecorder(), pulled: make(map[protocol.NodeID]int)}
	err := spec.Validate()
	for id := protocol.NodeID(0); err == nil && int(id) < spec.Manifest.N; id++ {
		if !slices.Contains(spec.ScaleTargets(), id) {
			err = f.Start(id)
		}
	}
	if err != nil {
		l.Close()
		return nil, err
	}
	return f, nil
}

func (f *restFleet) Now() simtime.Real                 { return simtime.Real(f.l.NowTicks()) }
func (f *restFleet) Running() []protocol.NodeID        { return slices.Sorted(maps.Keys(f.pulled)) }
func (f *restFleet) Recorder() *protocol.Recorder      { return f.rec }
func (f *restFleet) client(id protocol.NodeID) *Client { return f.l.Client(int(id)) }

func (f *restFleet) Start(id protocol.NodeID) error {
	err := f.l.Spawn(int(id))
	if err == nil {
		f.pulled[id] = 0
	}
	return err
}

func (f *restFleet) Initiate(g protocol.NodeID, slots []int, v protocol.Value) (int, protocol.Value, error) {
	return slots[0], v, f.client(g).Initiate(slots[0], string(v))
}

// Fault posts /fault: the daemon corrupts its running state in place.
func (f *restFleet) Fault(id protocol.NodeID, seed int64) error {
	return f.client(id).Fault(seed, faultSeverity)
}

// Stats reads the slot's /metrics counters back into nettrans.Stats.
func (f *restFleet) Stats(id protocol.NodeID) (nettrans.Stats, error) {
	m, err := f.client(id).Metrics()
	vec := make([]int64, len(nettrans.CounterNames))
	for i, name := range nettrans.CounterNames {
		vec[i] = m.Counters[name]
	}
	return nettrans.StatsOf(vec), err
}

func (f *restFleet) Sync() error {
	for _, id := range f.Running() {
		if err := f.pull(id); err != nil {
			return err
		}
	}
	return nil
}

// pull appends slot id's trace records past its cursor to the recorder.
func (f *restFleet) pull(id protocol.NodeID) error {
	events, err := f.client(id).TraceFrom(f.pulled[id])
	if err != nil {
		return fmt.Errorf("ops: trace of node %d: %w", id, err)
	}
	for _, ev := range events {
		f.rec.Add(ev)
	}
	f.pulled[id] += len(events)
	return nil
}

// Roll replaces one daemon: pull its trace tail (the recorder dies with
// it), POST /stop and wait for the exit, bump the slot's incarnation on
// every peer over /bump-epoch, reboot it at the new incarnation, and
// offer the old incarnation's replay probe to each peer.
func (f *restFleet) Roll(id protocol.NodeID) (uint64, error) {
	if err := f.pull(id); err != nil {
		return 0, err
	}
	if err := f.client(id).Stop(); err != nil {
		return 0, fmt.Errorf("stop: %w", err)
	}
	delete(f.pulled, id)
	if err := f.l.WaitExit(int(id), 10*time.Second); err != nil {
		return 0, err
	}
	inc := f.l.Reincarnate(int(id))
	peers := f.Running()
	for _, peer := range peers {
		if err := f.client(peer).BumpEpoch(int(id), inc); err != nil {
			return 0, fmt.Errorf("bump-epoch on node %d: %w", peer, err)
		}
	}
	if err := f.Start(id); err != nil {
		return 0, err
	}
	for _, peer := range peers {
		if err := f.l.Probe(int(id), int(peer), inc-1); err != nil {
			return 0, fmt.Errorf("replay probe to %d: %w", peer, err)
		}
	}
	return inc, nil
}

// Close drains each daemon through its ordered shutdown and waits for it
// to exit; any failure is the drain verdict.
func (f *restFleet) Close() error {
	defer f.l.Close()
	var errs []error
	for _, id := range f.Running() {
		if err := f.client(id).Drain(); err != nil {
			errs = append(errs, fmt.Errorf("drain node %d: %w", id, err))
		} else if err := f.l.WaitExit(int(id), 10*time.Second); err != nil {
			errs = append(errs, fmt.Errorf("node %d exit: %w", id, err))
		}
	}
	return errors.Join(errs...)
}
