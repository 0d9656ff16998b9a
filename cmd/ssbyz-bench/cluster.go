package main

// This file is the `-cluster` mode: spawn an n-node loopback cluster over
// real sockets — in-process (n NetNodes, one per goroutine set, each
// behind its own UDP/TCP socket) or multi-process (n ssbyz-node daemons
// booted from a generated manifest, traces collected over a control
// socket) — run agreements, and feed the collected trace through the
// full internal/check property battery. The exit status is non-zero if
// any node fails to decide or any paper bound is violated, which makes
// the mode CI's live smoke gate.

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"ssbyz/internal/check"
	"ssbyz/internal/clock"
	"ssbyz/internal/core"
	"ssbyz/internal/metrics"
	"ssbyz/internal/nettrans"
	"ssbyz/internal/protocol"
	"ssbyz/internal/service"
	"ssbyz/internal/simtime"
	"ssbyz/internal/transient"
	"ssbyz/internal/wire"
)

// clusterOpts carries the -cluster flag group.
type clusterOpts struct {
	n          int
	transport  string
	procs      bool
	nodeBin    string
	agreements int
	sessions   int
	d          simtime.Duration
	tick       time.Duration
	// virtual runs the cluster on a fake clock over the deterministic
	// in-memory wire: same codec and acceptance pipeline, byte-identical
	// runs (DESIGN.md §9). In-process only.
	virtual bool
	// fault, when ≥ 0, corrupts that RUNNING node's protocol state after
	// the first agreement — in place through its event loop in-process,
	// or over the daemon's control socket as a FrameFault with -procs —
	// and the run measures re-stabilization against Δstb = 2Δreset before
	// probing with a fresh agreement.
	fault int
}

// virtualSeed is the fixed wire seed of -virtual runs: the CLI's output
// must be reproducible, so the one entropy source is pinned.
const virtualSeed = 1

// runCluster executes the -cluster mode end to end.
func runCluster(o clusterOpts) error {
	if o.n < 4 {
		return fmt.Errorf("-cluster needs n ≥ 4 (n > 3f with f ≥ 1), got %d", o.n)
	}
	if o.agreements < 1 {
		o.agreements = 1
	}
	pp := protocol.DefaultParams(o.n)
	pp.D = o.d
	if err := pp.Validate(); err != nil {
		return err
	}
	if o.virtual && o.procs {
		return fmt.Errorf("-virtual needs the in-process cluster; drop -procs")
	}
	mode := "in-process"
	if o.procs {
		mode = "multi-process"
	}
	if o.virtual {
		mode = "in-process (virtual time)"
	}
	fmt.Printf("cluster: n=%d f=%d transport=%s d=%d ticks (%v) tick=%v mode=%s agreements=%d\n",
		pp.N, pp.F, o.transport, pp.D, time.Duration(pp.D)*o.tick, o.tick, mode, o.agreements)

	if o.fault >= 0 {
		if o.fault >= pp.N {
			return fmt.Errorf("-fault node %d outside committee [0,%d)", o.fault, pp.N)
		}
		if o.sessions > 1 {
			return fmt.Errorf("-fault needs the agreement cluster; drop -sessions")
		}
		if o.agreements >= pp.N {
			// The phantom mark is planted under General n-1; the rotation
			// must never script that identity or the mark is unobservable.
			return fmt.Errorf("-fault needs -agreements < n (the mark General n-1 must stay unscripted)")
		}
	}
	if o.sessions > 1 {
		if o.procs {
			return fmt.Errorf("-sessions > 1 needs the in-process service pump; drop -procs")
		}
		return runClusterService(o, pp)
	}
	if o.procs {
		return runClusterProcs(o, pp)
	}
	return runClusterInProcess(o, pp)
}

// runClusterService is the -sessions > 1 form of -cluster: instead of K
// sequential initiate/await rounds, all K values arrive at once as a
// replicated-log burst at General 0 and drain through the configured
// number of footnote-9 concurrent sessions, the way the Engine's Log
// facade drives a live cluster. The verdict is the same battery gate:
// every entry must commit and every per-session paper bound must hold.
func runClusterService(o clusterOpts, pp protocol.Params) error {
	arrivals := make([]simtime.Real, o.agreements)
	for i := range arrivals {
		arrivals[i] = simtime.Real(2 * pp.D)
	}
	cfg := service.LiveConfig{
		Params:     pp,
		Tick:       o.tick,
		Transport:  o.transport,
		Sessions:   o.sessions,
		QueueLimit: o.agreements,
	}
	if o.virtual {
		cfg.Clock = clock.NewFake(time.Time{})
		cfg.Seed = virtualSeed
	}
	start := time.Now()
	res, err := service.RunLive(cfg, []service.Workload{{G: 0, Arrivals: arrivals}}, 120*time.Second)
	if err != nil {
		return err
	}
	wallS := time.Since(start).Seconds()
	st := res.Logs[0].Stats()
	fmt.Printf("traffic: %s\n", fmtStats(res.Stats))
	fmt.Printf("log: committed=%d/%d failed=%d sessions=%d wall=%.2fs (%.1f agr/sec)\n",
		st.Committed, o.agreements, st.Failed, o.sessions, wallS,
		float64(st.Committed)/wallS)
	if st.Committed != o.agreements {
		return fmt.Errorf("only %d/%d entries committed", st.Committed, o.agreements)
	}
	if vs := service.Battery(res.Res, res.Logs); len(vs) > 0 {
		for _, v := range vs {
			fmt.Println("  VIOLATION", v)
		}
		return fmt.Errorf("%d property violations", len(vs))
	}
	fmt.Println("verdict: all entries committed; every checked paper bound holds per session")
	return nil
}

// verdict checks the collected trace against the battery and prints the
// outcome; it returns an error when anything is violated or undecided.
func verdict(res *check.LiveResult, inits []check.LiveInitiation, pp protocol.Params, d float64) error {
	violations := res.Battery(inits)
	for _, in := range inits {
		lats := res.DecideLatencies(in.G, in.V, in.T0)
		if len(lats) != len(res.Result.Correct) {
			violations = append(violations, check.Violation{
				Property: "Live",
				Detail: fmt.Sprintf("G%d %q: only %d/%d correct nodes decided",
					in.G, in.V, len(lats), len(res.Result.Correct)),
			})
			continue
		}
		s := metrics.Summarize(lats)
		fmt.Printf("agreement G%d %q: %d/%d decided, latency p50=%.2fd max=%.2fd\n",
			in.G, in.V, len(lats), len(res.Result.Correct), s.P50/d, s.Max/d)
	}
	fmt.Printf("battery: %d violations over %d trace events\n", len(violations), res.Result.Rec.Len())
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Println("  VIOLATION", v)
		}
		return fmt.Errorf("%d live property violations", len(violations))
	}
	fmt.Println("cluster run clean: every checked paper bound holds over the live trace")
	return nil
}

// ---- in-process ----

// fmtStats renders the full per-class condition/attack counter vector as
// "name=value" pairs — the same schema the daemons stream as FrameStats.
func fmtStats(s nettrans.Stats) string {
	vec := s.Counters()
	parts := make([]string, len(vec))
	for i, name := range nettrans.CounterNames {
		parts[i] = fmt.Sprintf("%s=%d", name, vec[i])
	}
	return strings.Join(parts, " ")
}

func runClusterInProcess(o clusterOpts, pp protocol.Params) error {
	ccfg := nettrans.ClusterConfig{
		Params: pp, Tick: o.tick, Transport: o.transport,
	}
	agrBudget := time.Duration(pp.DeltaAgr())*o.tick + 5*time.Second
	if o.virtual {
		ccfg.Clock = clock.NewFake(time.Time{})
		ccfg.Seed = virtualSeed
		// The budget is virtual ticks now, not wall clock: no slack for
		// host scheduling is needed, only protocol time.
		agrBudget = time.Duration(pp.DeltaAgr()+20*pp.D) * o.tick
	}
	c, err := nettrans.NewCluster(ccfg)
	if err != nil {
		return err
	}
	defer c.Stop()

	runAgreement := func(i int) (check.LiveInitiation, error) {
		g := protocol.NodeID(i % pp.N)
		v := protocol.Value(fmt.Sprintf("v%d", i))
		t0, _, err := c.Initiate(g, 0, v)
		if err != nil {
			return check.LiveInitiation{}, fmt.Errorf("agreement %d: %w", i, err)
		}
		if done := c.AwaitDecisions(g, v, agrBudget); done != pp.N {
			return check.LiveInitiation{}, fmt.Errorf("agreement %d: only %d/%d nodes decided within %v (stats %+v)",
				i, done, pp.N, agrBudget, c.Stats())
		}
		return check.LiveInitiation{G: g, V: v, T0: t0}, nil
	}

	var inits []check.LiveInitiation
	for i := 0; i < o.agreements; i++ {
		init, err := runAgreement(i)
		if err != nil {
			return err
		}
		inits = append(inits, init)
		if i == 0 && o.fault >= 0 {
			break
		}
	}

	if o.fault < 0 {
		fmt.Printf("traffic: %s\n", fmtStats(c.Stats()))
		res := c.Result(simtime.Duration(c.NowTicks()) + 1)
		return verdict(&check.LiveResult{Result: res}, inits, pp, float64(pp.D))
	}

	// Mid-run transient fault: corrupt the RUNNING node in place through
	// its event loop (the same transient.CorruptRunning call the daemon's
	// control socket triggers), measure the re-stabilization of the
	// planted phantom mark against Δstb = 2Δreset, then probe with the
	// remaining agreements and judge the pre- and post-window trace
	// halves separately — the paper's properties are only promised
	// outside the fault window.
	faultNode := protocol.NodeID(o.fault)
	markG := protocol.NodeID(pp.N - 1)
	// Flush the first agreement's tail before the cut: decisions are
	// awaited above but the return events trail them, and the pre-fault
	// verdict below must see a complete agreement.
	if c.Virtual() != nil {
		c.StepUntil(func() bool { return false }, simtime.Duration(c.NowTicks())+8*pp.D)
	} else {
		time.Sleep(time.Duration(8*pp.D) * o.tick)
	}
	faultTick := c.NowTicks()
	c.DoWait(faultNode, func(n protocol.Node) {
		transient.CorruptRunning(n.(*core.Node), pp, transient.Config{
			Seed:  virtualSeed,
			Marks: []protocol.NodeID{markG},
		}, simtime.Local(c.NowTicks()))
	})
	fmt.Printf("fault: node %d state corrupted in place at tick %d (severity 1000‰)\n", faultNode, faultTick)

	markReturned := func() bool {
		returned := false
		c.DoWait(faultNode, func(n protocol.Node) {
			returned, _, _ = n.(*core.Node).Result(markG)
		})
		return returned
	}
	if !markReturned() {
		return fmt.Errorf("fault: the phantom mark was not planted on node %d", faultNode)
	}
	deadline := faultTick + simtime.Real(pp.DeltaStb())
	advanceUntil := func(target simtime.Real, stop func() bool) {
		if fake := c.Virtual(); fake != nil {
			steps := 0
			c.StepUntil(func() bool {
				steps++
				return steps%32 == 0 && stop != nil && stop()
			}, simtime.Duration(target))
			return
		}
		for c.NowTicks() < target {
			if stop != nil && stop() {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	advanceUntil(deadline, func() bool { return !markReturned() })
	if markReturned() {
		return fmt.Errorf("node %d did not re-stabilize within Δstb = %d ticks", faultNode, pp.DeltaStb())
	}
	restab := c.NowTicks() - faultTick
	fmt.Printf("fault: node %d re-stabilized in %d ticks (Δstb budget %d)\n", faultNode, restab, pp.DeltaStb())
	advanceUntil(deadline, nil)

	postStart := c.NowTicks()
	var postInits []check.LiveInitiation
	for i := 1; i < o.agreements; i++ {
		init, err := runAgreement(i)
		if err != nil {
			return err
		}
		postInits = append(postInits, init)
	}
	if len(postInits) == 0 {
		// Always probe after recovery, even when -agreements is 1: the
		// point of the fault run is proving the system still agrees.
		init, err := runAgreement(1)
		if err != nil {
			return err
		}
		postInits = append(postInits, init)
	}
	fmt.Printf("traffic: %s\n", fmtStats(c.Stats()))

	res := c.Result(simtime.Duration(c.NowTicks()) + 1)
	var pre, post []protocol.TraceEvent
	for _, ev := range res.Rec.Events() {
		switch {
		case ev.RT < faultTick:
			pre = append(pre, ev)
		case ev.RT >= postStart:
			post = append(post, ev)
		}
	}
	fmt.Printf("pre-fault window (%d events):\n", len(pre))
	if err := verdict(&check.LiveResult{Result: nettrans.BuildResult(pp, pre, res.Correct, simtime.Duration(faultTick))},
		inits, pp, float64(pp.D)); err != nil {
		return err
	}
	fmt.Printf("post-recovery window (%d events):\n", len(post))
	return verdict(&check.LiveResult{Result: nettrans.BuildResult(pp, post, res.Correct, simtime.Duration(c.NowTicks())+1)},
		postInits, pp, float64(pp.D))
}

// ---- multi-process ----

func runClusterProcs(o clusterOpts, pp protocol.Params) error {
	nodeBin, err := resolveNodeBin(o.nodeBin)
	if err != nil {
		return err
	}

	// Reserve one loopback port per node by binding and releasing; the
	// window between release and the daemon's re-bind is the usual
	// ephemeral-port race, acceptable for a loopback smoke topology.
	addrs := make([]string, pp.N)
	for i := range addrs {
		s, err := nettrans.ListenSocket(o.transport, "127.0.0.1:0")
		if err != nil {
			return err
		}
		addrs[i] = s.Addr()
		s.Close()
	}

	// The epoch sits far enough out that every daemon has parsed the
	// manifest and bound its socket before tick 0.
	epoch := time.Now().Add(500 * time.Millisecond)
	t0 := simtime.Real(5 * pp.D)
	runFor := int64(t0) + int64(2*pp.DeltaAgr()) + int64(10*pp.D)

	// With -fault the run stretches past the transient window: the fault
	// order lands after the first agreement settles, the daemons get the
	// full Δstb = 2Δreset budget to re-stabilize, and a second General
	// then probes that the recovered cluster still agrees.
	var (
		faultAt   simtime.Real
		postAt    simtime.Real
		probeNode protocol.NodeID
		vpost     = protocol.Value("vpost")
	)
	if o.fault >= 0 {
		faultAt = t0 + simtime.Real(pp.DeltaAgr()) + simtime.Real(10*pp.D)
		postAt = faultAt + simtime.Real(pp.DeltaStb()) + simtime.Real(2*pp.D)
		// The probe General must be neither node 0 (already the General of
		// v0) nor n-1 (the phantom-mark identity the daemon's fault watcher
		// observes); n ≥ 4 always leaves 1 or 2 free.
		probeNode = 1
		if o.fault == 1 {
			probeNode = 2
		}
		runFor = int64(postAt) + int64(2*pp.DeltaAgr()) + int64(10*pp.D)
	}
	m := nettrans.Manifest{
		N: pp.N, F: pp.F, D: pp.D,
		TickUS:        o.tick.Microseconds(),
		Transport:     o.transport,
		EpochUnixNano: epoch.UnixNano(),
		Nodes:         addrs,
	}
	dir, err := os.MkdirTemp("", "ssbyz-cluster-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	manifestPath := filepath.Join(dir, "cluster.json")
	if err := os.WriteFile(manifestPath, m.Marshal(), 0o644); err != nil {
		return err
	}

	collector, err := newTraceCollector()
	if err != nil {
		return err
	}
	defer collector.close()

	v := protocol.Value("v0")
	procs := make([]*exec.Cmd, pp.N)
	for i := 0; i < pp.N; i++ {
		args := []string{
			"-manifest", manifestPath,
			"-id", fmt.Sprint(i),
			"-control", collector.addr(),
			"-run-for", fmt.Sprint(runFor),
		}
		if i == 0 {
			args = append(args, "-initiate", string(v), "-initiate-at", fmt.Sprint(int64(t0)))
		}
		if o.fault >= 0 && protocol.NodeID(i) == probeNode {
			args = append(args, "-initiate", string(vpost), "-initiate-at", fmt.Sprint(int64(postAt)))
		}
		cmd := exec.Command(nodeBin, args...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			killAll(procs)
			return fmt.Errorf("spawn node %d: %w", i, err)
		}
		procs[i] = cmd
	}
	if o.fault >= 0 {
		// Deliver the fault order over the control socket at wall time
		// epoch + faultAt ticks — the daemon corrupts its RUNNING state in
		// place and self-reports its re-stabilization.
		go func() {
			time.Sleep(time.Until(epoch.Add(time.Duration(faultAt) * o.tick)))
			if err := collector.sendFault(protocol.NodeID(o.fault),
				wire.FaultCmd{Seed: virtualSeed, SeverityPermille: 1000}); err != nil {
				fmt.Fprintf(os.Stderr, "fault order to node %d: %v\n", o.fault, err)
			}
		}()
	}
	var procErrs []error
	for i, cmd := range procs {
		if err := cmd.Wait(); err != nil {
			procErrs = append(procErrs, fmt.Errorf("node %d: %w", i, err))
		}
	}
	if len(procErrs) > 0 {
		return errors.Join(procErrs...)
	}
	events := collector.drain()
	fmt.Printf("collected %d trace events from %d daemons\n", len(events), pp.N)
	fmt.Printf("traffic: %s\n", fmtStats(collector.totalStats()))

	correct := make([]protocol.NodeID, pp.N)
	for i := range correct {
		correct[i] = protocol.NodeID(i)
	}
	realT0, ok := findInitiate(events, 0, v)
	if !ok {
		return fmt.Errorf("the General's initiation never appeared in the collected trace")
	}

	if o.fault < 0 {
		res := nettrans.BuildResult(pp, events, correct, simtime.Duration(runFor)+1)
		return verdict(&check.LiveResult{Result: res},
			[]check.LiveInitiation{{G: 0, V: v, T0: realT0}}, pp, float64(pp.D))
	}

	// With -fault the trace is judged in two halves around the transient
	// window [faultAt, postAt): the paper's properties are promised before
	// the fault and again once Δstb has elapsed, not during recovery.
	var pre, post []protocol.TraceEvent
	for _, ev := range events {
		switch {
		case ev.RT < faultAt:
			pre = append(pre, ev)
		case ev.RT >= postAt:
			post = append(post, ev)
		}
	}
	postT0, ok := findInitiate(post, probeNode, vpost)
	if !ok {
		return fmt.Errorf("the post-recovery probe initiation (G%d %q) never appeared in the collected trace", probeNode, vpost)
	}
	fmt.Printf("pre-fault window (%d events):\n", len(pre))
	if err := verdict(&check.LiveResult{Result: nettrans.BuildResult(pp, pre, correct, simtime.Duration(faultAt))},
		[]check.LiveInitiation{{G: 0, V: v, T0: realT0}}, pp, float64(pp.D)); err != nil {
		return err
	}
	fmt.Printf("post-recovery window (%d events):\n", len(post))
	return verdict(&check.LiveResult{Result: nettrans.BuildResult(pp, post, correct, simtime.Duration(runFor)+1)},
		[]check.LiveInitiation{{G: probeNode, V: vpost, T0: postT0}}, pp, float64(pp.D))
}

func findInitiate(events []protocol.TraceEvent, g protocol.NodeID, v protocol.Value) (simtime.Real, bool) {
	for _, ev := range events {
		if ev.Kind == protocol.EvInitiate && ev.Node == g && ev.M == v {
			return ev.RT, true
		}
	}
	return 0, false
}

func killAll(procs []*exec.Cmd) {
	for _, cmd := range procs {
		if cmd != nil && cmd.Process != nil {
			_ = cmd.Process.Kill()
		}
	}
}

// resolveNodeBin locates the ssbyz-node binary: the explicit flag, a
// sibling of this executable, or PATH.
func resolveNodeBin(flagValue string) (string, error) {
	if flagValue != "" {
		return flagValue, nil
	}
	if self, err := os.Executable(); err == nil {
		sibling := filepath.Join(filepath.Dir(self), "ssbyz-node")
		if _, err := os.Stat(sibling); err == nil {
			return sibling, nil
		}
	}
	if p, err := exec.LookPath("ssbyz-node"); err == nil {
		return p, nil
	}
	return "", fmt.Errorf("cannot find ssbyz-node (build it with `go build ./cmd/ssbyz-node` and pass -node-bin, or put it next to ssbyz-bench)")
}

// traceCollector accepts the daemons' control connections and decodes
// their trace streams. The connections are bidirectional: each is
// registered under the node id its FrameHello announces so sendFault can
// address a specific RUNNING daemon with a FrameFault order, and the
// FrameStats vector each daemon streams at shutdown is kept so the run
// can print the cluster-wide per-class condition/attack counters.
type traceCollector struct {
	ln net.Listener
	wg sync.WaitGroup

	mu     sync.Mutex
	events []protocol.TraceEvent
	conns  map[protocol.NodeID]net.Conn
	stats  map[protocol.NodeID]nettrans.Stats
}

func newTraceCollector() (*traceCollector, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c := &traceCollector{
		ln:    ln,
		conns: make(map[protocol.NodeID]net.Conn),
		stats: make(map[protocol.NodeID]nettrans.Stats),
	}
	go c.acceptLoop()
	return c, nil
}

// sendFault writes a FrameFault order on the named daemon's control
// connection; the daemon corrupts its RUNNING protocol state in place on
// receipt (the in-situ transient-fault injection of DESIGN.md §10).
func (c *traceCollector) sendFault(id protocol.NodeID, cmd wire.FaultCmd) error {
	c.mu.Lock()
	conn := c.conns[id]
	c.mu.Unlock()
	if conn == nil {
		return fmt.Errorf("no control connection from node %d", id)
	}
	frame := wire.AppendFrame(nil, wire.Frame{
		Kind:    wire.FrameFault,
		From:    id,
		Payload: wire.AppendFaultCmd(nil, cmd),
	})
	_, err := conn.Write(frame)
	return err
}

// totalStats sums the per-daemon shutdown counter vectors.
func (c *traceCollector) totalStats() nettrans.Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total nettrans.Stats
	for _, s := range c.stats {
		total.Add(s)
	}
	return total
}

func (c *traceCollector) addr() string { return c.ln.Addr().String() }

func (c *traceCollector) acceptLoop() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			defer conn.Close()
			c.readLoop(conn)
		}()
	}
}

func (c *traceCollector) readLoop(conn net.Conn) {
	var buf []byte
	chunk := make([]byte, 32<<10)
	for {
		n, err := conn.Read(chunk)
		if n > 0 {
			buf = append(buf, chunk[:n]...)
			for {
				f, consumed, derr := wire.DecodeFrame(buf)
				if errors.Is(derr, wire.ErrTruncated) {
					break
				}
				if derr != nil {
					return // corrupt control stream; drop the connection
				}
				buf = buf[consumed:]
				switch f.Kind {
				case wire.FrameHello:
					c.mu.Lock()
					c.conns[f.From] = conn
					c.mu.Unlock()
				case wire.FrameStats:
					if vec, _, err := wire.DecodeCounters(f.Payload); err == nil {
						c.mu.Lock()
						c.stats[f.From] = nettrans.StatsFromCounters(vec)
						c.mu.Unlock()
					}
				case wire.FrameTrace:
					if ev, _, err := wire.DecodeTraceEvent(f.Payload); err == nil {
						c.mu.Lock()
						c.events = append(c.events, ev)
						c.mu.Unlock()
					}
				}
			}
		}
		if err != nil {
			return
		}
	}
}

// drain waits for the open streams to finish and returns the events.
func (c *traceCollector) drain() []protocol.TraceEvent {
	c.ln.Close()
	c.wg.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.events
}

func (c *traceCollector) close() {
	c.ln.Close()
	c.wg.Wait()
}
