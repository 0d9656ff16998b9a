package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"sort"
	"strings"
	"time"

	"ssbyz/internal/nettrans"
	"ssbyz/internal/ops"
	"ssbyz/internal/protocol"
)

// runProcs executes the campaign with one ssbyz-node process per slot,
// orchestrated entirely over REST: boot the fleet (scale targets held
// back), pump initiations at General 0, execute the schedule — scale
// spawns the held slot, roll stops a daemon over POST /stop, bumps its
// incarnation on every peer over POST /bump-epoch, reboots it with
// -incarnation, offers the old life's replay probe, and asserts
// /healthz stabilized within the wall-clock Δstb budget — then drains
// every daemon through its ordered shutdown.
func runProcs(f *clusterFlags, spec ops.ClusterSpec) error {
	if *f.transport != nettrans.TransportUDP {
		return fmt.Errorf("-procs needs -transport udp (the replay probe is a raw datagram)")
	}
	pp := spec.Manifest.Params()
	entries := spec.Entries
	if entries <= 0 {
		entries = 8
	}

	// The spec's committee, schedule, and workload carry over; the fleet
	// rebuilds the wire-level manifest for real processes (reserved
	// loopback ports, a wall epoch every daemon binds before).
	fl, err := ops.NewFleet(*f.nodeBin, pp, nettrans.TransportUDP, *f.tick)
	if err != nil {
		return err
	}
	defer fl.Close()

	// Boot everything except the scale targets, one daemon at a time:
	// each starts once the previous one has published its ops address.
	held := make(map[int]bool)
	for _, id := range spec.ScaleTargets() {
		held[int(id)] = true
	}
	for id := 0; id < pp.N; id++ {
		if held[id] {
			continue
		}
		if err := fl.Spawn(id); err != nil {
			return err
		}
	}
	fmt.Printf("fleet up: %d/%d daemons (scale targets held: %d), epoch %s\n",
		pp.N-len(held), pp.N, len(held), fl.Epoch().Format(time.RFC3339Nano))

	// Stream node 0's /events (the NDJSON libpod shape) for the log;
	// decides are counted rather than printed.
	evCtx, evCancel := context.WithCancel(context.Background())
	defer evCancel()
	go func() {
		_ = fl.Client(0).Events(evCtx, func(ev ops.Event) {
			if ev.Type != "decide" {
				fmt.Printf("event: %s node=%d tick=%d %v\n", ev.Type, ev.Node, ev.Tick, ev.Attrs)
			}
		})
	}()

	// The traffic pump: REST initiations at General 0, spaced 15d apart
	// (past the paper's Δ0 = 13d sending-validity spacing for distinct
	// values), starting at 5d.
	go func() {
		for i := 0; i < entries; i++ {
			fl.SleepUntilTick(int64(5*pp.D) + int64(i)*int64(15*pp.D))
			if err := fl.Client(0).Initiate(0, fmt.Sprintf("e%d", i)); err != nil {
				fmt.Fprintf(os.Stderr, "initiate e%d: %v\n", i, err)
			}
		}
	}()

	// Wall-clock budget for one re-stabilization: the paper's Δstb in
	// real time, plus slack for process start-up.
	stbBudget := time.Duration(pp.DeltaStb())*(*f.tick) + 10*time.Second
	var verdictErrs []string

	for _, st := range spec.Steps {
		fl.SleepUntilTick(st.At)
		switch st.Op {
		case ops.OpScale:
			if err := fl.Spawn(st.Node); err != nil {
				return fmt.Errorf("scale node %d: %w", st.Node, err)
			}
			fmt.Printf("scale: node %d up at tick %d\n", st.Node, fl.NowTicks())

		case ops.OpRoll:
			rollStart := time.Now()
			fmt.Printf("roll: replacing node %d at tick %d\n", st.Node, fl.NowTicks())
			if err := roll(fl, st.Node); err != nil {
				return fmt.Errorf("roll node %d: %w", st.Node, err)
			}
			// The Δstb assertion: the replacement must report stabilized —
			// a decide observed at its new incarnation — within the budget,
			// while the pump keeps committing.
			h, err := fl.Client(st.Node).AwaitStabilized(stbBudget)
			if err != nil {
				verdictErrs = append(verdictErrs, fmt.Sprintf("rolled node %d: %v", st.Node, err))
			} else {
				fmt.Printf("roll: node %d re-stabilized in %v (incarnation %d, state %q)\n",
					st.Node, time.Since(rollStart).Round(time.Millisecond), h.Incarnation, h.State)
			}
			// The replay verdict: every peer's epoch_drops counter must move
			// for the probe forged from the old incarnation.
			if err := awaitEpochDrops(fl, st.Node); err != nil {
				verdictErrs = append(verdictErrs, err.Error())
			}

		case ops.OpDrain:
			// Wait for the workload: General 0 observes one decide per entry.
			if err := awaitDecides(fl, 0, int64(entries), stbBudget); err != nil {
				verdictErrs = append(verdictErrs, err.Error())
			}
		}
	}

	// Ordered drain: every daemon closes its event bus (clean /events
	// EOF), finishes in-flight handlers, flushes, and exits.
	evCancel()
	fmt.Printf("drain: stopping %d daemons at tick %d\n", len(fl.Running()), fl.NowTicks())
	for _, id := range fl.Running() {
		if err := fl.Client(id).Drain(); err != nil {
			verdictErrs = append(verdictErrs, fmt.Sprintf("drain node %d: %v", id, err))
		}
	}
	for _, id := range fl.Running() {
		if err := fl.WaitExit(id, 10*time.Second); err != nil {
			verdictErrs = append(verdictErrs, fmt.Sprintf("node %d exit: %v", id, err))
		}
	}

	if len(verdictErrs) > 0 {
		return fmt.Errorf("campaign verdicts failed:\n  %s", strings.Join(verdictErrs, "\n  "))
	}
	fmt.Println("campaign verdicts: all passed")
	return nil
}

// roll replaces one running daemon: REST /stop, wait for exit, bump the
// slot's incarnation on every peer over /bump-epoch, reboot it at the
// new incarnation, and offer the old incarnation's replay probe to each
// peer as a raw datagram.
func roll(fl *ops.Fleet, id int) error {
	if err := fl.Client(id).Stop(); err != nil {
		return fmt.Errorf("stop: %w", err)
	}
	if err := fl.WaitExit(id, 10*time.Second); err != nil {
		return err
	}
	newInc := fl.Reincarnate(id)
	for _, peer := range fl.Running() {
		if err := fl.Client(peer).BumpEpoch(id, newInc); err != nil {
			return fmt.Errorf("bump-epoch on node %d: %w", peer, err)
		}
	}
	if err := fl.Spawn(id); err != nil {
		return err
	}
	// The replay probe: one frame stamped with the PREVIOUS incarnation's
	// epoch id, sent from an anonymous socket. Every peer must reject it
	// at the first acceptance-pipeline step (epoch_drops) — the epoch
	// check runs before authentication, by design.
	probe := ops.ReplayProbe(uint64(fl.Epoch().UnixNano())+newInc-1, protocol.NodeID(id), fl.NowTicks())
	for _, peer := range fl.Running() {
		if peer == id {
			continue
		}
		conn, err := net.Dial("udp", fl.Addr(peer))
		if err != nil {
			return err
		}
		_, _ = conn.Write(probe)
		conn.Close()
	}
	return nil
}

// awaitEpochDrops polls every peer's /metrics until its epoch_drops
// counter is non-zero — the cluster-wide proof the rolled node's old
// incarnation is dead.
func awaitEpochDrops(fl *ops.Fleet, rolled int) error {
	deadline := time.Now().Add(5 * time.Second)
	pending := make(map[int]bool)
	for _, id := range fl.Running() {
		if id != rolled {
			pending[id] = true
		}
	}
	for len(pending) > 0 {
		for id := range pending {
			mtr, err := fl.Client(id).Metrics()
			if err == nil && mtr.Counters["epoch_drops"] > 0 {
				delete(pending, id)
			}
		}
		if len(pending) == 0 {
			break
		}
		if time.Now().After(deadline) {
			ids := make([]int, 0, len(pending))
			for id := range pending {
				ids = append(ids, id)
			}
			sort.Ints(ids)
			return fmt.Errorf("peers %v never counted an epoch_drop for the old-incarnation replay", ids)
		}
		time.Sleep(20 * time.Millisecond)
	}
	fmt.Printf("roll: old-incarnation replay rejected by all %d peers (epoch_drops > 0)\n", len(fl.Running())-1)
	return nil
}

// awaitDecides polls a node's /metrics until it has observed at least
// want decides (one per committed workload entry at its General).
func awaitDecides(fl *ops.Fleet, id int, want int64, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	var last int64
	for {
		mtr, err := fl.Client(id).Metrics()
		if err == nil {
			last = mtr.Decides
			if last >= want {
				fmt.Printf("workload: node %d observed %d decides (want %d)\n", id, last, want)
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("workload: node %d observed %d/%d decides within %v", id, last, want, budget)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
