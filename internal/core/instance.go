// Package core implements the ss-Byz-Agree protocol of Fig. 1: the paper's
// primary contribution. Each node runs one agreement instance per General;
// the instance wires an Initiator-Accept primitive (which produces the
// anchor τG and candidate value) to a msgd-broadcast session (which drives
// the round structure), and executes blocks Q/R/S/T/U.
//
// Once the system is stable and n > 3f (Theorem 3) the protocol satisfies
// Agreement, Validity and Termination, plus the Timeliness properties
// (agreement skew ≤ 3d, anchor skew ≤ 6d, termination ≤ Δagr, validity
// window [t0−d, t0+4d], and the separation bounds).
package core

import (
	"ssbyz/internal/broadcast"
	"ssbyz/internal/initaccept"
	"ssbyz/internal/protocol"
	"ssbyz/internal/simtime"
)

// Timer tag names used by the agreement layer.
const (
	tagBlockT  = "agr-t"     // Block T deadline for round K
	tagBlockU  = "agr-u"     // Block U deadline (2f+1)·Φ
	tagReset   = "agr-reset" // reset primitives 3d after returning
	tagSweep   = "agr-sweep" // periodic decay
	tagIG3     = "agr-ig3"   // General-side failed-invocation check
	tagIGReset = "agr-igrst" // end of the General's Δreset silence
)

// levelRec records one accepted broadcast (p, ⟨G,m⟩, k) for Block S.
type levelRec struct {
	at simtime.Local
}

// blockRWindow is the prompt-I-accept window of Block R (see the deviation
// note at its use site): 5d rather than the paper's literal 4d, unless the
// A1 ablation overrides it through the parameters.
func blockRWindow(pp protocol.Params) simtime.Duration {
	if pp.BlockRWindow > 0 {
		return pp.BlockRWindow
	}
	return 5 * pp.D
}

// Instance is one node's agreement state for General g.
type Instance struct {
	rt protocol.Runtime
	g  protocol.NodeID
	pp protocol.Params

	ia *initaccept.Instance
	bc *broadcast.Session

	invoked    bool
	invokedAt  simtime.Local
	tauGSet    bool
	tauG       simtime.Local
	anchoredAt simtime.Local // local time τG was set (stabilization backstop)
	iaValue    protocol.Value
	returned   bool
	returnedAt simtime.Local
	decided    bool
	retValue   protocol.Value
	// onReturn reports decide/abort outcomes to the owning node so they
	// survive the instance's 3d-deferred reset.
	onReturn func(g protocol.NodeID, decided bool, v protocol.Value)

	// levels[value][k][p] records accepted broadcasts per round for
	// Block S; entries decay after (2f+1)·Φ + 3d.
	levels map[protocol.Value]map[int]map[protocol.NodeID]levelRec

	deadlineTimers []protocol.TimerID
}

func newInstance(rt protocol.Runtime, g protocol.NodeID, onReturn func(protocol.NodeID, bool, protocol.Value)) *Instance {
	inst := &Instance{
		rt:       rt,
		g:        g,
		pp:       rt.Params(),
		levels:   make(map[protocol.Value]map[int]map[protocol.NodeID]levelRec),
		onReturn: onReturn,
	}
	inst.ia = initaccept.New(rt, g, inst.onIAccept)
	inst.bc = broadcast.NewSession(rt, g, inst.onAccept)
	return inst
}

// Returned reports whether the instance has stopped, and with what value
// (⊥ for abort). decided distinguishes decide from abort.
func (inst *Instance) Returned() (returned, decided bool, value protocol.Value) {
	return inst.returned, inst.decided, inst.retValue
}

// TauG exposes the anchor (for tests).
func (inst *Instance) TauG() (simtime.Local, bool) { return inst.tauG, inst.tauGSet }

// IA and BC expose the primitives (transient injector and white-box tests).
func (inst *Instance) IA() *initaccept.Instance { return inst.ia }
func (inst *Instance) BC() *broadcast.Session   { return inst.bc }

// onInitiator handles Block Q1: receipt of (Initiator, G, m) from G.
func (inst *Instance) onInitiator(m protocol.Message) {
	if inst.returned {
		return
	}
	now := inst.rt.Now()
	if !inst.invoked {
		inst.invoked = true
		inst.invokedAt = now
		inst.rt.Trace(protocol.TraceEvent{Kind: protocol.EvInvoke, G: inst.g, M: m.M})
	}
	inst.ia.Invoke(m.M, now)
}

// onIAccept is the Initiator-Accept output: I-accept ⟨G, m′, τG⟩.
// It realizes Block R, and arms the S/T/U machinery when R's 4d window
// has already passed.
func (inst *Instance) onIAccept(m protocol.Value, tauG simtime.Local) {
	if inst.tauGSet || inst.returned {
		return
	}
	now := inst.rt.Now()
	inst.tauGSet = true
	inst.tauG = tauG
	inst.anchoredAt = now
	inst.iaValue = m
	// SetAnchor replays any logged broadcast-layer messages, which can
	// complete Block S and return the instance right here.
	inst.bc.SetAnchor(tauG)
	if inst.returned {
		return
	}

	// Block R: decide immediately on a prompt I-accept.
	//
	// Deviation from the paper's Fig. 1, documented in DESIGN.md §3: R1
	// tests
	// τq − τG ≤ 4d, but the paper's own Claim 1 timeline allows a correct
	// node's N4 as late as t0+4d with its recording time as early as t0−d
	// (IA-1D), i.e. an own-node gap of up to 5d. With the literal 4d the
	// earliest Initiator recipient can fail R in a fault-free run and
	// miss the t0+4d decision bound of Timeliness-2 via the S path. The
	// consistent constant is 5d; safety is unaffected (R still requires
	// an I-accept, and IA-4 bounds anchors across values).
	if elapsed := inst.pp.Sub(now, tauG); elapsed >= 0 && elapsed <= blockRWindow(inst.pp) {
		inst.decide(m, 1)
		return
	}

	// Late I-accept (possible only with a faulty General): fall through to
	// the round structure. Arm Block T deadlines for r = 2..f and the
	// Block U deadline at (2f+1)·Φ.
	inst.armDeadlines(now)
	// Logged broadcast-layer messages may already complete Block S.
	inst.trySBlock(now)
}

// armDeadlines schedules the T and U checks relative to the anchor.
func (inst *Instance) armDeadlines(now simtime.Local) {
	phi := inst.pp.Phi()
	for r := 2; r <= inst.pp.F; r++ {
		deadline := simtime.Duration(2*r+1) * phi
		dl := deadline - inst.pp.Sub(now, inst.tauG) + 1
		id := inst.rt.After(dl, protocol.TimerTag{Name: tagBlockT, G: inst.g, K: r})
		inst.deadlineTimers = append(inst.deadlineTimers, id)
	}
	deadline := simtime.Duration(2*inst.pp.F+1) * phi
	dl := deadline - inst.pp.Sub(now, inst.tauG) + 1
	id := inst.rt.After(dl, protocol.TimerTag{Name: tagBlockU, G: inst.g})
	inst.deadlineTimers = append(inst.deadlineTimers, id)
}

// onAccept is the msgd-broadcast output: the node accepted (p, m, k).
func (inst *Instance) onAccept(p protocol.NodeID, m protocol.Value, k int) {
	if inst.returned || !inst.tauGSet {
		return
	}
	if p == inst.g || k < 1 {
		return // Block S only counts broadcasters distinct from G
	}
	now := inst.rt.Now()
	byLevel, ok := inst.levels[m]
	if !ok {
		byLevel = make(map[int]map[protocol.NodeID]levelRec)
		inst.levels[m] = byLevel
	}
	senders, ok := byLevel[k]
	if !ok {
		senders = make(map[protocol.NodeID]levelRec)
		byLevel[k] = senders
	}
	senders[p] = levelRec{at: now}
	inst.trySBlock(now)
}

// trySBlock evaluates Block S: if by τq ≤ τG + (2r+1)·Φ the node has
// accepted r messages (p_i, ⟨G,m″⟩, i) for i = 1..r with pairwise-distinct
// p_i ≠ G, it decides m″ and relays at level r+1. The smallest satisfiable
// r fires (deciding at the earliest opportunity); when several values
// satisfy it, the smallest value is decided, so the outcome never depends
// on map iteration order.
func (inst *Instance) trySBlock(now simtime.Local) {
	if inst.returned || !inst.tauGSet {
		return
	}
	elapsed := inst.pp.Sub(now, inst.tauG)
	var best protocol.Value
	bestR := 0
	for m, byLevel := range inst.levels {
		maxR := 0
		for k := range byLevel {
			if k > maxR {
				maxR = k
			}
		}
		for r := 1; r <= maxR && r <= inst.pp.F && (bestR == 0 || r <= bestR); r++ {
			if elapsed > simtime.Duration(2*r+1)*inst.pp.Phi() {
				continue
			}
			if inst.hasDistinctChain(m, r) {
				if bestR == 0 || r < bestR || m < best {
					best, bestR = m, r
				}
				break
			}
		}
	}
	if bestR > 0 {
		inst.decide(best, bestR+1)
	}
}

// hasDistinctChain checks for a system of distinct representatives:
// one accepted sender per level 1..r, all senders pairwise distinct.
// Levels and f are small, so a simple backtracking matching suffices.
func (inst *Instance) hasDistinctChain(m protocol.Value, r int) bool {
	byLevel := inst.levels[m]
	used := make(map[protocol.NodeID]bool)
	var match func(level int) bool
	match = func(level int) bool {
		if level > r {
			return true
		}
		for p := range byLevel[level] {
			if used[p] {
				continue
			}
			used[p] = true
			if match(level + 1) {
				return true
			}
			delete(used, p)
		}
		return false
	}
	return match(1)
}

// onBlockT runs the Block T check at τG + (2r+1)·Φ: abort when fewer than
// r−1 broadcasters have been detected.
func (inst *Instance) onBlockT(r int) {
	if inst.returned || !inst.tauGSet {
		return
	}
	if inst.bc.Broadcasters() < r-1 {
		inst.abort()
	}
}

// onBlockU runs the Block U check at τG + (2f+1)·Φ: unconditional abort.
func (inst *Instance) onBlockU() {
	if inst.returned || !inst.tauGSet {
		return
	}
	inst.abort()
}

// decide stops with a value: msgd-broadcast (q, value, k), return.
func (inst *Instance) decide(m protocol.Value, k int) {
	inst.bc.Broadcast(m, k)
	inst.returned = true
	inst.returnedAt = inst.rt.Now()
	inst.decided = true
	inst.retValue = m
	if inst.onReturn != nil {
		inst.onReturn(inst.g, true, m)
	}
	inst.stop()
	inst.rt.Trace(protocol.TraceEvent{
		Kind: protocol.EvDecide, G: inst.g, M: m, K: k, TauG: inst.tauG,
	})
}

// abort stops with ⊥.
func (inst *Instance) abort() {
	inst.returned = true
	inst.returnedAt = inst.rt.Now()
	inst.decided = false
	inst.retValue = protocol.Bottom
	if inst.onReturn != nil {
		inst.onReturn(inst.g, false, protocol.Bottom)
	}
	inst.stop()
	inst.rt.Trace(protocol.TraceEvent{
		Kind: protocol.EvAbort, G: inst.g, M: protocol.Bottom, TauG: inst.tauG,
	})
}

// stop cancels deadline timers and schedules the 3d-deferred reset of the
// primitives ("a node stops participating ... and it stopped participating
// in the invoked primitives 3d time units after that").
func (inst *Instance) stop() {
	for _, id := range inst.deadlineTimers {
		inst.rt.Cancel(id)
	}
	inst.deadlineTimers = nil
	inst.rt.After(3*inst.pp.D, protocol.TimerTag{Name: tagReset, G: inst.g})
}

// reset clears the per-agreement state so a later invocation starts fresh.
// The Initiator-Accept rate-limiting variables survive inside ia.
func (inst *Instance) reset() {
	inst.ia.ResetAcceptState()
	inst.bc.Reset()
	inst.invoked = false
	inst.invokedAt = 0
	inst.tauGSet = false
	inst.tauG = 0
	inst.anchoredAt = 0
	inst.iaValue = protocol.Bottom
	inst.returned = false
	inst.returnedAt = 0
	inst.decided = false
	inst.retValue = protocol.Bottom
	for _, id := range inst.deadlineTimers {
		inst.rt.Cancel(id)
	}
	inst.deadlineTimers = nil
	inst.levels = make(map[protocol.Value]map[int]map[protocol.NodeID]levelRec)
}

// cleanup applies the agreement-layer decay: "erase any value or message
// older than (2f+1)·Φ + 3d time units".
func (inst *Instance) cleanup(now simtime.Local) {
	maxAge := inst.pp.DeltaAgr() + 3*inst.pp.D
	for m, byLevel := range inst.levels {
		for k, senders := range byLevel {
			for p, rec := range senders {
				age := inst.pp.Sub(now, rec.at)
				if age < 0 || age > maxAge {
					delete(senders, p)
				}
			}
			if len(senders) == 0 {
				delete(byLevel, k)
			}
		}
		if len(byLevel) == 0 {
			delete(inst.levels, m)
		}
	}
	inst.ia.Cleanup(now)
	inst.bc.Cleanup(now)

	// Self-stabilization backstops: a transient fault can leave the
	// control state in configurations no fair execution produces — e.g.
	// returned=true with no pending reset timer, or an anchor with no
	// armed deadlines. Such residue is "older than (2f+1)·Φ + 3d" in the
	// sense of the cleanup rule and is erased here, so the instance always
	// becomes available again within one Δagr.
	if inst.returned {
		if age := inst.pp.Sub(now, inst.returnedAt); age < 0 || age > maxAge {
			inst.reset()
			return
		}
	}
	if inst.tauGSet && !inst.returned {
		age := inst.pp.Sub(now, inst.anchoredAt)
		anchorAge := inst.pp.Sub(now, inst.tauG)
		if age < 0 || age > maxAge || anchorAge < 0 || anchorAge > maxAge+simtime.Duration(8*inst.pp.D) {
			inst.expire()
		}
	}
	// An invocation whose anchor never materialized (the General failed to
	// assemble a support quorum) terminates by reset: "by time
	// (2f+1)·Φ + 3d on its clock all entries will be reset, which is a
	// termination of the protocol".
	if inst.invoked && !inst.tauGSet && !inst.returned {
		age := inst.pp.Sub(now, inst.invokedAt)
		if age < 0 || age > maxAge {
			inst.expire()
		}
	}
}

// expire terminates the instance by state reset without returning a value
// (the paper's second termination mode) and records the event.
func (inst *Instance) expire() {
	inst.rt.Trace(protocol.TraceEvent{Kind: protocol.EvExpire, G: inst.g})
	inst.reset()
}
