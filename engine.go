package ssbyz

import (
	"fmt"
	"time"

	"ssbyz/internal/check"
	"ssbyz/internal/indexed"
	"ssbyz/internal/nettrans"
	"ssbyz/internal/protocol"
	"ssbyz/internal/service"
	"ssbyz/internal/sim"
	"ssbyz/internal/simnet"
	"ssbyz/internal/simtime"
)

// Engine is the single entry point to the agreement service: n nodes
// under the paper's model (at most f Byzantine, n > 3f, delays bounded by
// d), multiplexing up to Sessions concurrent agreement invocations per
// General (the footnote-9 extension) on either runtime — the
// deterministic discrete-event simulator that verifies the paper's proved
// bounds exactly, or a loopback socket cluster where every message
// crosses the kernel's network stack. Construct with New and functional
// options, obtain Session handles for individual agreements or Log
// handles for the replicated-log service, then Run (scheduled, both
// runtimes) or Start (interactive, sockets).
type Engine struct {
	pp                 protocol.Params
	dSet               bool
	seed               int64
	delayMin, delayMax Ticks
	sessions           int
	queueLimit         int
	rt                 RuntimeSpec
	faulty             map[NodeID]Adversary
	newNode            func() protocol.Node
	corrupt            func(w *simnet.World)

	manual   []sim.Initiation
	open     map[NodeID][]*Session
	logs     map[NodeID]*Log
	logOrder []NodeID
	report   *ServiceReport

	cluster *nettrans.Cluster
	inits   []check.LiveInitiation
	stopped bool
}

// Option configures an Engine at construction; New applies the options
// and then validates the result against the paper's model (n > 3f among
// the checks), reporting violations as ErrBadParams.
type Option func(*Engine) error

// WithN sets the node count n; f defaults to ⌊(n−1)/3⌋, the paper's
// optimal resilience.
func WithN(n int) Option {
	return func(e *Engine) error { e.pp.N = n; return nil }
}

// WithF lowers the Byzantine fault bound below the optimal ⌊(n−1)/3⌋.
func WithF(f int) Option {
	return func(e *Engine) error { e.pp.F = f; return nil }
}

// WithD sets the paper's message delivery+processing bound d, in ticks
// (default 1000 on the simulator, 100 on the socket runtime); every Δ
// constant of Section 3 derives from it.
func WithD(d Ticks) Option {
	return func(e *Engine) error { e.pp.D = d; e.dSet = true; return nil }
}

// WithSeed drives all randomness; identical seeds reproduce simulator
// runs exactly — the determinism every check of the paper's proved
// Timeliness/IA bounds relies on.
func WithSeed(seed int64) Option {
	return func(e *Engine) error { e.seed = seed; return nil }
}

// WithDelayBounds bounds actual message delays (default [d/2, d]) — the
// δ of the paper's headline claim that rounds complete at actual network
// speed rather than the d worst case.
func WithDelayBounds(min, max Ticks) Option {
	return func(e *Engine) error { e.delayMin, e.delayMax = min, max; return nil }
}

// WithSessions sets the number of concurrent agreement sessions each
// General may run (default 1 — the plain protocol of Fig. 1). Above 1,
// correct nodes multiplex indexed invocations per footnote 9, the
// sending-validity criteria IG1–IG3 applying per session.
func WithSessions(s int) Option {
	return func(e *Engine) error {
		if s < 1 {
			return fmt.Errorf("%w: sessions must be ≥ 1, got %d", ErrBadParams, s)
		}
		e.sessions = s
		return nil
	}
}

// WithQueueLimit bounds each replicated log's pending-proposal buffer
// (default 4× the session count); arrivals beyond it are shed, keeping
// the client model open-loop so measured throughput reflects IG1's
// per-session Δ0 admission rate, not queueing back-pressure.
func WithQueueLimit(q int) Option {
	return func(e *Engine) error {
		if q < 1 {
			return fmt.Errorf("%w: queue limit must be ≥ 1, got %d", ErrBadParams, q)
		}
		e.queueLimit = q
		return nil
	}
}

// WithFaultyNode marks node id Byzantine, driven by the given adversary
// (nil for a crashed node); at most f = ⌊(n−1)/3⌋ nodes may be faulty.
func WithFaultyNode(id NodeID, adv Adversary) Option {
	return func(e *Engine) error { e.faulty[id] = adv; return nil }
}

// WithRuntime selects where the engine runs: SimRuntime (default) or
// SocketRuntime. Either way the same protocol state machines execute
// under the paper's bounded-delay axiom (messages arrive within d).
func WithRuntime(rt RuntimeSpec) Option {
	return func(e *Engine) error { e.rt = rt; return nil }
}

// RuntimeSpec names an execution substrate for the Engine. Both run the
// identical protocol state machines; the simulator verifies the paper's
// bounds in virtual time, the socket runtime demonstrates them wall-clock.
type RuntimeSpec struct {
	kind      int // 0 = simulator, 1 = sockets
	transport string
	tick      time.Duration
}

// SimRuntime is the deterministic discrete-event simulator: per-node
// drifting clocks, adversarial message timing, virtual real time — the
// substrate on which the paper's Timeliness/IA bounds are checked
// exactly.
func SimRuntime() RuntimeSpec { return RuntimeSpec{} }

// SocketRuntime is the loopback socket cluster: every message serialized
// by the wire codec and delivered through real UDP ("udp", the default —
// frames older than d are dropped, matching the paper's deliver-within-d
// model) or TCP ("tcp") sockets, with d expressed as ticks of the given
// wall-clock length (default 100µs).
func SocketRuntime(transport string, tick time.Duration) RuntimeSpec {
	return RuntimeSpec{kind: 1, transport: transport, tick: tick}
}

// New builds an Engine from functional options and validates it against
// the paper's model; violations (n ≤ 3f, malformed delays, …) come back
// wrapping ErrBadParams.
func New(opts ...Option) (*Engine, error) {
	e := &Engine{
		sessions: 1,
		faulty:   make(map[NodeID]Adversary),
		open:     make(map[NodeID][]*Session),
		logs:     make(map[NodeID]*Log),
	}
	for _, opt := range opts {
		if err := opt(e); err != nil {
			return nil, err
		}
	}
	if e.pp.N == 0 {
		e.pp.N = 7
	}
	if e.pp.F == 0 {
		e.pp.F = protocol.MaxFaults(e.pp.N)
	}
	if !e.dSet && e.pp.D == 0 {
		if e.rt.kind == 1 {
			e.pp.D = 100
		} else {
			e.pp.D = protocol.DefaultParams(e.pp.N).D
		}
	}
	if err := e.pp.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadParams, err)
	}
	if len(e.faulty) > e.pp.F {
		return nil, fmt.Errorf("%w: %d faulty nodes exceeds f=%d", ErrBadParams, len(e.faulty), e.pp.F)
	}
	return e, nil
}

// Params returns the resolved protocol constants (n, f, d and the derived
// Δ bounds of the paper's Section 3).
func (e *Engine) Params() Params { return e.pp }

// OpenSession claims one of General g's concurrent invocation slots
// (footnote 9) for individually proposed agreements. It fails with
// ErrSessionLimit once all Sessions slots of g are claimed, and with
// ErrBadParams if g is faulty or already serves a replicated Log (a
// General is either scripted or load-driven, never both — the pump owns
// every slot of a log-serving General).
func (e *Engine) OpenSession(g NodeID) (*Session, error) {
	if err := e.usableGeneral(g); err != nil {
		return nil, err
	}
	if _, ok := e.logs[g]; ok {
		return nil, fmt.Errorf("%w: General %d already serves a replicated log", ErrBadParams, g)
	}
	if len(e.open[g]) >= e.sessions {
		return nil, fmt.Errorf("%w: General %d has all %d sessions open", ErrSessionLimit, g, e.sessions)
	}
	s := &Session{eng: e, g: g, slot: len(e.open[g])}
	e.open[g] = append(e.open[g], s)
	return s, nil
}

// Log opens (or returns) General g's replicated log: proposals appended
// via the log commit through agreement sessions multiplexed across all of
// g's footnote-9 slots. Fails with ErrBadParams if g is faulty or has
// individually opened sessions.
func (e *Engine) Log(g NodeID) (*Log, error) {
	if l, ok := e.logs[g]; ok {
		return l, nil
	}
	if err := e.usableGeneral(g); err != nil {
		return nil, err
	}
	if len(e.open[g]) > 0 {
		return nil, fmt.Errorf("%w: General %d has individually opened sessions", ErrBadParams, g)
	}
	l := &Log{eng: e, g: g}
	e.logs[g] = l
	e.logOrder = append(e.logOrder, g)
	return l, nil
}

func (e *Engine) usableGeneral(g NodeID) error {
	if g < 0 || int(g) >= e.pp.N {
		return fmt.Errorf("%w: General %d out of range [0,%d)", ErrBadParams, g, e.pp.N)
	}
	if _, bad := e.faulty[g]; bad {
		return fmt.Errorf("%w: General %d is faulty", ErrBadParams, g)
	}
	return nil
}

// nodeFactory resolves the correct-node state machine: an explicit
// override (pulse layer, legacy concurrent slots), else indexed nodes
// when sessions are multiplexed, else the plain core node of Fig. 1.
func (e *Engine) nodeFactory() func() protocol.Node {
	if e.newNode != nil {
		return e.newNode
	}
	if e.sessions > 1 {
		s := e.sessions
		return func() protocol.Node { return indexed.NewNode(s) }
	}
	return nil // sim.Run / nettrans default to core.NewNode
}

// Run executes everything scheduled — session proposals and log traffic —
// to completion and returns the report. runFor bounds the virtual run
// (simulator; 0 derives a horizon that provably outlives the workload:
// Δ0-paced admissions plus the Δagr agreement bound) or the wall-clock
// drain deadline in ticks (sockets; 0 means 60s). Run memoizes: a second
// call returns the same report.
func (e *Engine) Run(runFor Ticks) (*ServiceReport, error) {
	if e.report != nil {
		return e.report, nil
	}
	if e.stopped {
		return nil, ErrStopped
	}
	if e.rt.kind == 1 {
		return e.runLive(runFor)
	}
	return e.runSim(runFor)
}

func (e *Engine) loads() []service.Workload {
	out := make([]service.Workload, 0, len(e.logOrder))
	for _, g := range e.logOrder {
		out = append(out, e.logs[g].workload())
	}
	return out
}

func (e *Engine) runSim(runFor Ticks) (*ServiceReport, error) {
	sc := sim.Scenario{
		Params:      e.pp,
		Seed:        e.seed,
		DelayMin:    e.delayMin,
		DelayMax:    e.delayMax,
		Faulty:      e.faulty,
		NewNode:     e.nodeFactory(),
		Initiations: e.manual,
		Corrupt:     e.corrupt,
	}
	loads := e.loads()
	var lastManual simtime.Real
	for _, init := range e.manual {
		if init.At > lastManual {
			lastManual = init.At
		}
	}
	if len(loads) == 0 {
		// Pure session workload: the legacy horizon — three Δagr
		// agreement spans past the last scheduled initiation.
		if runFor > 0 {
			sc.RunFor = runFor
		} else {
			sc.RunFor = simtime.Duration(lastManual) + 3*e.pp.DeltaAgr()
		}
		res, err := sim.Run(sc)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadParams, err)
		}
		e.report = &ServiceReport{Report: &Report{res: res}}
		return e.report, nil
	}
	if runFor > 0 {
		sc.RunFor = runFor
	}
	sres, err := service.RunSim(service.SimConfig{
		Scenario:   sc,
		Sessions:   e.sessions,
		QueueLimit: e.queueLimit,
		Loads:      loads,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadParams, err)
	}
	// Manual initiations may outlive the service horizon check; they ran
	// in the same world, so one report covers both.
	e.report = newServiceReport(&Report{res: sres.Res}, sres.Logs)
	return e.report, nil
}

func (e *Engine) runLive(runFor Ticks) (*ServiceReport, error) {
	if len(e.manual) > 0 || len(e.open) > 0 {
		return nil, fmt.Errorf("%w: scheduled sessions need the simulator runtime; use Start for interactive socket agreements", ErrBadParams)
	}
	loads := e.loads()
	if len(loads) == 0 {
		return nil, fmt.Errorf("%w: socket Run needs at least one replicated log", ErrBadParams)
	}
	tick := e.rt.tick
	if tick == 0 {
		tick = 100 * time.Microsecond
	}
	timeout := 60 * time.Second
	if runFor > 0 {
		timeout = time.Duration(runFor) * tick
	}
	lres, err := service.RunLive(service.LiveConfig{
		Params:     e.pp,
		Tick:       tick,
		Transport:  e.rt.transport,
		Sessions:   e.sessions,
		QueueLimit: e.queueLimit,
		Faulty:     e.faulty,
	}, loads, timeout)
	if err != nil {
		return nil, err
	}
	e.report = newServiceReport(&Report{res: lres.Res}, lres.Logs)
	return e.report, nil
}

// Start boots the socket cluster for interactive use — Session.Propose,
// Await, CheckLive — instead of a scheduled Run: real sockets enforcing
// the paper's bounded-delay axiom wall-clock. Callers must Stop.
func (e *Engine) Start() error {
	if e.rt.kind != 1 {
		return fmt.Errorf("%w: Start needs the socket runtime (WithRuntime(SocketRuntime(...)))", ErrBadParams)
	}
	if e.stopped {
		return ErrStopped
	}
	if e.cluster != nil {
		return nil
	}
	c, err := nettrans.NewCluster(nettrans.ClusterConfig{
		Params:    e.pp,
		Tick:      e.rt.tick,
		Transport: e.rt.transport,
		Faulty:    e.faulty,
		NewNode:   e.nodeFactory(),
	})
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadParams, err)
	}
	e.cluster = c
	return nil
}

// initiateLive starts one agreement on the running socket cluster,
// recording the traced initiation instant as the t0 of the Validity
// window CheckLive verifies.
func (e *Engine) initiateLive(g NodeID, slot int, v Value) error {
	if e.stopped {
		return ErrStopped
	}
	if e.cluster == nil {
		return fmt.Errorf("%w: engine not started", ErrBadParams)
	}
	t0, wire, err := e.cluster.Initiate(g, slot, v)
	if err != nil {
		return err
	}
	e.inits = append(e.inits, check.LiveInitiation{G: g, V: wire, T0: t0})
	return nil
}

// Await blocks until every node has returned for General g on the running
// socket cluster or the timeout elapses (Timeliness-3 bounds the return
// by Δagr past the invocation) and returns the unanimous decided value.
// Single-session engines only — with multiplexed sessions, returns are
// per slot and live in the trace.
func (e *Engine) Await(g NodeID, timeout time.Duration) (Value, error) {
	if e.stopped {
		return Bottom, ErrStopped
	}
	if e.cluster == nil {
		return Bottom, fmt.Errorf("%w: engine not started", ErrBadParams)
	}
	if e.sessions > 1 || e.newNode != nil {
		return Bottom, fmt.Errorf("%w: Await reads single-session returns; inspect the trace for multiplexed engines", ErrBadParams)
	}
	tick := e.rt.tick
	if tick == 0 {
		tick = 100 * time.Microsecond
	}
	return awaitUnanimous(e.pp.N, timeout, tick*10, func(i int, fn func(protocol.Node)) {
		e.cluster.DoWait(NodeID(i), fn)
	}, g)
}

// CheckLive runs the full property battery (Agreement, Timeliness, IA
// bounds, plus each initiation's Validity window) over the socket
// cluster's trace collected so far.
func (e *Engine) CheckLive() []Violation {
	if e.cluster == nil {
		return nil
	}
	res := e.cluster.Result(simtime.Duration(e.cluster.NowTicks()) + 1)
	lr := &check.LiveResult{Result: res}
	return lr.Battery(e.inits)
}

// Stop tears the socket cluster down (protocol timers, sockets, event
// loops — nothing runs afterwards, as the self-stabilizing timer traffic
// requires); idempotent, and a no-op for simulator engines.
func (e *Engine) Stop() {
	e.stopped = true
	if e.cluster != nil {
		e.cluster.Stop()
	}
}

// Session is a claimed concurrent-invocation slot of one General: a
// handle for proposing individual agreements, scheduled (simulator) or
// immediate (running socket cluster). The sending-validity criteria
// IG1–IG3 apply within the slot; distinct Sessions run concurrently
// (footnote 9).
type Session struct {
	eng  *Engine
	g    NodeID
	slot int
}

// General returns the General whose footnote-9 slot this session holds.
func (s *Session) General() NodeID { return s.g }

// Slot returns the footnote-9 invocation index this session occupies.
func (s *Session) Slot() int { return s.slot }

// ProposeAt schedules agreement on v at virtual time at (simulator
// runtime; the engine's Run executes the schedule). Refusals of the
// sending-validity criteria IG1–IG3 surface in the report's
// InitiationErrors.
func (s *Session) ProposeAt(v Value, at Ticks) error {
	if s.eng.report != nil || s.eng.stopped {
		return ErrStopped
	}
	if s.eng.rt.kind != 0 {
		return fmt.Errorf("%w: ProposeAt schedules virtual time; use Propose on a started socket engine", ErrBadParams)
	}
	s.eng.manual = append(s.eng.manual, sim.Initiation{
		At: simtime.Real(at), G: s.g, Value: v, Slot: s.slot,
	})
	return nil
}

// Propose initiates agreement on v now, in this session's slot, on the
// started socket cluster. The error reflects the sending-validity
// criteria IG1–IG3.
func (s *Session) Propose(v Value) error {
	if s.eng.rt.kind != 1 {
		return fmt.Errorf("%w: Propose is immediate (socket runtime); use ProposeAt on the simulator", ErrBadParams)
	}
	return s.eng.initiateLive(s.g, s.slot, v)
}

// Decisions returns the correct nodes' decide-returns for this session's
// agreements from a finished report, values with the footnote-9 slot
// namespace stripped.
func (s *Session) Decisions(r *Report) []Decision {
	if s.eng.sessions > 1 {
		return r.SlotDecisions(s.g, s.slot)
	}
	var out []Decision
	for _, d := range r.Decisions(s.g) {
		if d.Decided {
			out = append(out, d)
		}
	}
	return out
}

// Log is General g's replicated log: an ordered sequence of client
// proposals, each committed through one agreement, multiplexed over all
// of g's concurrent sessions. The committed order is the decision-anchor
// order rt(τG) — synchronized across correct nodes to within d (IA-1C) —
// so every correct observer reconstructs the same log.
type Log struct {
	eng      *Engine
	g        NodeID
	arrivals []simtime.Real
	payloads map[int]Value
}

// General returns the General serving this log; every entry becomes one
// ss-Byz-Agree invocation of it through a footnote-9 session slot.
func (l *Log) General() NodeID { return l.g }

// ProposeAt appends a client proposal arriving at the given time (ticks;
// virtual on the simulator, wall-ticks-since-start live). Arrivals must
// be appended in time order; the open-loop pump admits them against the
// bounded queue when the run executes, initiating each under IG1–IG3.
func (l *Log) ProposeAt(v Value, at Ticks) error {
	if l.eng.report != nil || l.eng.stopped {
		return ErrStopped
	}
	if n := len(l.arrivals); n > 0 && simtime.Real(at) < l.arrivals[n-1] {
		return fmt.Errorf("%w: arrival at %d before previous %d", ErrBadParams, at, l.arrivals[n-1])
	}
	if l.payloads == nil {
		l.payloads = make(map[int]Value)
	}
	l.payloads[len(l.arrivals)] = v
	l.arrivals = append(l.arrivals, simtime.Real(at))
	return nil
}

// Traffic describes open-loop synthetic client load: Count proposals
// arriving after Start with exponentially distributed gaps of mean
// MeanGap — a Poisson process, drawn deterministically from Seed. The
// interesting regimes sit around MeanGap ≈ Δ0/Sessions, where IG1's
// per-session admission rate saturates.
type Traffic struct {
	Seed    int64
	Start   Ticks
	MeanGap Ticks
	Count   int
}

// GenerateTraffic appends a Poisson arrival schedule (Traffic) to the
// log — the open-loop client whose offered rate IG1's Δ0 admission
// bound meters. Payloads default to "p<i>".
func (l *Log) GenerateTraffic(tr Traffic) error {
	if l.eng.report != nil || l.eng.stopped {
		return ErrStopped
	}
	if tr.Count <= 0 || tr.MeanGap <= 0 {
		return fmt.Errorf("%w: traffic needs positive Count and MeanGap", ErrBadParams)
	}
	start := simtime.Real(tr.Start)
	if n := len(l.arrivals); n > 0 && l.arrivals[n-1] > start {
		start = l.arrivals[n-1]
	}
	l.arrivals = append(l.arrivals, service.PoissonArrivals(tr.Seed, start, tr.MeanGap, tr.Count)...)
	return nil
}

func (l *Log) workload() service.Workload {
	payloads := l.payloads
	var payload func(int) Value
	if payloads != nil {
		payload = func(i int) Value {
			if v, ok := payloads[i]; ok {
				return v
			}
			return Value("p" + fmt.Sprint(i))
		}
	}
	return service.Workload{G: l.g, Arrivals: l.arrivals, Payload: payload}
}

// LogEntry is one client proposal and its fate — pending, initiated,
// committed (with its decide return and anchor instants), failed (abort
// or past the Δagr+8d protocol extent), or dropped by the open-loop
// bounded queue.
type LogEntry = service.Entry

// LogStats are one finished log's service-level numbers: commit and drop
// counts, the makespan, and per-entry commit latencies (arrival to the
// General's decide return, bounded by Timeliness-3's Δagr once
// initiated) in ticks.
type LogStats = service.Stats

// ServiceReport is a finished Engine run: the protocol-level Report
// (decisions, the Agreement/Timeliness/IA property battery) plus each
// replicated log's outcome.
type ServiceReport struct {
	*Report
	logs    map[NodeID]*LogReport
	ordered []*service.LogResult
}

func newServiceReport(r *Report, logs []*service.LogResult) *ServiceReport {
	sr := &ServiceReport{Report: r, logs: make(map[NodeID]*LogReport), ordered: logs}
	for _, lr := range logs {
		sr.logs[lr.G] = &LogReport{res: lr}
	}
	return sr
}

// LogReport is one General's finished replicated log: the total order
// its committed entries take (ascending IA-1C decision anchors) and the
// fate of every proposal.
type LogReport struct {
	res *service.LogResult
}

// Log returns General g's replicated-log outcome (its IA-1C-anchored
// total order and entry fates), or nil if g served none.
func (sr *ServiceReport) Log(g NodeID) *LogReport { return sr.logs[g] }

// CheckService runs the full per-session property battery over every
// log-serving General — Agreement, Timeliness, the IA bounds split per
// footnote-9 session, plus the Validity window of every committed entry
// anchored at its traced initiation instant.
func (sr *ServiceReport) CheckService() []Violation {
	return service.Battery(sr.res, sr.ordered)
}

// Committed returns the log in its total order — ascending decision
// anchor rt(τG), the per-agreement instant IA-1C synchronizes across
// correct nodes to within d.
func (lr *LogReport) Committed() []*LogEntry { return lr.res.Committed }

// Entries returns every proposal in arrival order, whatever its fate —
// committed, failed (decided ⊥ under a faulty General), or shed by the
// open-loop queue before any invocation.
func (lr *LogReport) Entries() []*LogEntry { return lr.res.Entries }

// Stats computes the log's service-level numbers (LogStats): commit
// counts, makespan, and Timeliness-bounded commit latencies.
func (lr *LogReport) Stats() LogStats { return lr.res.Stats() }
