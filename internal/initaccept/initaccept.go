// Package initaccept implements the Initiator-Accept primitive of the
// paper (Fig. 2): the self-stabilizing mechanism by which all correct
// nodes associate a consistent local-time anchor τG with a (possibly
// faulty) General's initiation and converge to a single candidate value.
//
// The primitive guarantees, once the system is stable and n > 3f
// (Theorem 1):
//
//	IA-1 Correctness    — a correct General's value is I-accepted by all
//	                      correct nodes within 4d, within 2d of each
//	                      other, with recording times within d.
//	IA-2 Unforgeability — no I-accept without a correct invocation.
//	IA-3 Δagr-Relay     — one correct I-accept (within Δagr of its
//	                      anchor) pulls every correct node along within
//	                      2d, anchors within 6d.
//	IA-4 Uniqueness     — anchors for different values are > 4d apart;
//	                      for the same value they are ≤ 6d or > 2Δrmv−3d
//	                      apart.
package initaccept

import (
	"cmp"
	"slices"

	"ssbyz/internal/msglog"
	"ssbyz/internal/protocol"
	"ssbyz/internal/simtime"
)

// sentKey dedupes our own sends per (kind, value). The paper lets nodes
// re-send the same message repeatedly and explicitly permits optimizations
// that avoid it; suppression windows are chosen so a legitimate later wave
// (spaced by the sending-validity criteria) is never suppressed.
type sentKey struct {
	kind protocol.MsgKind
	m    protocol.Value
}

// IAcceptFn receives the primitive's output: the node I-accepts ⟨G, m, τG⟩.
type IAcceptFn func(m protocol.Value, tauG simtime.Local)

// Instance is one node's state for the Initiator-Accept primitive of a
// single General G. It is driven by a single event loop (no locking).
type Instance struct {
	rt protocol.Runtime
	g  protocol.NodeID
	pp protocol.Params

	// seq stamps each reception window's first record (msglog.Window).
	seq uint64

	// iValues is the i_values[G,*] vector: candidate recording times.
	iValues map[protocol.Value]simtime.Local
	// lastG / lastGM are the rate-limiting variables lastq(G), lastq(G,m).
	lastG  updates
	lastGM map[protocol.Value]*updates
	// ready holds the set time of each ready_{G,m} flag (decays at Δrmv).
	ready map[protocol.Value]simtime.Local

	sent           map[sentKey]simtime.Local
	lastSupportAny simtime.Local
	hasSupportAny  bool

	// pending holds Initiator receipts awaiting a successful Block K
	// evaluation; entries are retried briefly and then dropped.
	pending map[protocol.Value]simtime.Local
	// ignoreUntil implements "ignore all (G,m) messages for 3d" after N4.
	ignoreUntil map[protocol.Value]simtime.Local

	// lineTimes records the completion times of lines L4/M4/N4 per value,
	// used by a correct General to detect failed invocations (IG3).
	lineL4, lineM4, lineN4 map[protocol.Value]simtime.Local

	// act lists the per-value states Evaluate iterates, in first-seen
	// order (deterministic). It grows as values gain live state and is
	// rebuilt on Cleanup/reset, so Evaluate does not re-derive the set from
	// maps on every incoming message (the hot path, DESIGN.md §5).
	act  []*valState
	vals map[protocol.Value]*valState

	onIAccept IAcceptFn
}

// valState is one value's entry in the iteration list, holding the
// reception windows of its (support|approve|ready, G, m) messages, so the
// per-message block evaluation reaches its counts without hashing the
// value string again.
type valState struct {
	m                       protocol.Value
	inAct                   bool
	support, approve, ready msglog.Window
}

// window picks the reception window of a message kind; kinds outside
// support, approve and ready have none.
func (vs *valState) window(kind protocol.MsgKind) *msglog.Window {
	switch kind {
	case protocol.Support:
		return &vs.support
	case protocol.Approve:
		return &vs.approve
	case protocol.Ready:
		return &vs.ready
	}
	return nil
}

// windows lists the value's three reception windows.
func (vs *valState) windows() []*msglog.Window {
	return []*msglog.Window{&vs.support, &vs.approve, &vs.ready}
}

// New creates the instance for General g at the node owning rt.
func New(rt protocol.Runtime, g protocol.NodeID, onIAccept IAcceptFn) *Instance {
	pp := rt.Params()
	return &Instance{
		rt:          rt,
		g:           g,
		pp:          pp,
		iValues:     make(map[protocol.Value]simtime.Local),
		lastGM:      make(map[protocol.Value]*updates),
		ready:       make(map[protocol.Value]simtime.Local),
		sent:        make(map[sentKey]simtime.Local),
		pending:     make(map[protocol.Value]simtime.Local),
		ignoreUntil: make(map[protocol.Value]simtime.Local),
		lineL4:      make(map[protocol.Value]simtime.Local),
		lineM4:      make(map[protocol.Value]simtime.Local),
		lineN4:      make(map[protocol.Value]simtime.Local),
		vals:        make(map[protocol.Value]*valState),
		onIAccept:   onIAccept,
	}
}

// noteValue marks m live for the fixed-point evaluator and returns its
// cached state.
func (ia *Instance) noteValue(m protocol.Value) *valState {
	vs, ok := ia.vals[m]
	if !ok {
		vs = &valState{m: m}
		ia.vals[m] = vs
	}
	if !vs.inAct {
		vs.inAct = true
		ia.act = append(ia.act, vs)
	}
	return vs
}

// record logs sender's kind message for vs at local time at, presizing a
// window for n senders on its first record.
func (ia *Instance) record(vs *valState, kind protocol.MsgKind, sender protocol.NodeID, at simtime.Local) {
	vs.window(kind).Record(sender, at, ia.pp.N, ia.pp.Wrap, &ia.seq)
}

// rebuildActive recomputes the live-value list from current state:
// pending invocations and ready flags first, in their first-seen order,
// then the values holding reception records, in the order of their oldest
// surviving window's first record (msglog.FirstStamp), never the vals
// map's order. Values that drop out lose their state too (a later
// reappearance rebuilds it); none holds a record.
func (ia *Instance) rebuildActive() {
	for _, vs := range ia.act {
		vs.inAct = false
	}
	live := ia.act[:0]
	for _, vs := range ia.act {
		_, pending := ia.pending[vs.m]
		_, ready := ia.ready[vs.m]
		if pending || ready {
			vs.inAct = true
			live = append(live, vs)
		}
	}
	// Pending/ready values not in the old list cannot exist (every path
	// that adds one calls noteValue), so the head of the list is complete.
	head := len(live)
	for m, vs := range ia.vals {
		if vs.inAct {
			continue
		}
		if _, ok := msglog.FirstStamp(vs.windows()); ok {
			vs.inAct = true
			live = append(live, vs)
		} else {
			delete(ia.vals, m)
		}
	}
	slices.SortFunc(live[head:], func(a, b *valState) int {
		fa, _ := msglog.FirstStamp(a.windows())
		fb, _ := msglog.FirstStamp(b.windows())
		return cmp.Compare(fa, fb)
	})
	clear(ia.act[len(live):])
	ia.act = live
}

// General returns the General this instance tracks.
func (ia *Instance) General() protocol.NodeID { return ia.g }

func (ia *Instance) d() simtime.Duration { return ia.pp.D }

// gm returns (creating if needed) the lastq(G,m) history for m.
func (ia *Instance) gm(m protocol.Value) *updates {
	u, ok := ia.lastGM[m]
	if !ok {
		u = &updates{}
		ia.lastGM[m] = u
	}
	return u
}

// ignored reports whether (G,m) messages are inside the 3d post-N4 ignore
// window.
func (ia *Instance) ignored(m protocol.Value, now simtime.Local) bool {
	until, ok := ia.ignoreUntil[m]
	if !ok {
		return false
	}
	if ia.pp.Sub(until, now) > 0 {
		return true
	}
	delete(ia.ignoreUntil, m)
	return false
}

// iValue returns the unexpired i_values[G,m] entry. Entries decay Δrmv
// after their recording time; future-stamped entries are clearly wrong.
func (ia *Instance) iValue(m protocol.Value, now simtime.Local) (simtime.Local, bool) {
	rec, ok := ia.iValues[m]
	if !ok {
		return 0, false
	}
	age := ia.pp.Sub(now, rec)
	if age < 0 || age > ia.pp.DeltaRmv() {
		delete(ia.iValues, m)
		return 0, false
	}
	return rec, true
}

// anyOtherIValue reports whether i_values[G,m′] is defined for some m′≠m.
func (ia *Instance) anyOtherIValue(m protocol.Value, now simtime.Local) bool {
	for m2 := range ia.iValues {
		if m2 == m {
			continue
		}
		if _, ok := ia.iValue(m2, now); ok {
			return true
		}
	}
	return false
}

// readyDefined reports whether ready_{G,m} holds an unexpired true.
func (ia *Instance) readyDefined(m protocol.Value, now simtime.Local) bool {
	at, ok := ia.ready[m]
	if !ok {
		return false
	}
	age := ia.pp.Sub(now, at)
	if age < 0 || age > ia.pp.DeltaRmv() {
		delete(ia.ready, m)
		return false
	}
	return true
}

// canSend applies the send-suppression window.
func (ia *Instance) canSend(kind protocol.MsgKind, m protocol.Value, now simtime.Local) bool {
	at, ok := ia.sent[sentKey{kind, m}]
	if !ok {
		return true
	}
	age := ia.pp.Sub(now, at)
	return age < 0 || age > ia.pp.DeltaRmv()
}

func (ia *Instance) markSent(kind protocol.MsgKind, m protocol.Value, now simtime.Local) {
	ia.sent[sentKey{kind, m}] = now
}

// lastGExpiry and lastGMExpiry are the cleanup-block expiry ages.
func (ia *Instance) lastGExpiry() simtime.Duration { return ia.pp.Delta0() - 6*ia.d() }
func (ia *Instance) lastGMExpiry() simtime.Duration {
	return 2*ia.pp.DeltaRmv() + 9*ia.d()
}

// Invoke processes receipt of (Initiator, G, m): Block Q1/K. The caller
// (the agreement layer) has already authenticated that the message came
// from G.
func (ia *Instance) Invoke(m protocol.Value, now simtime.Local) {
	if ia.ignored(m, now) {
		return
	}
	ia.pending[m] = now
	ia.noteValue(m)
	// Retry Block K shortly in case a condition (e.g. "sent support in the
	// last d") clears within the allowance.
	ia.rt.After(ia.d(), protocol.TimerTag{Name: TagRetry, G: ia.g, M: m})
	ia.rt.After(2*ia.d(), protocol.TimerTag{Name: TagRetry, G: ia.g, M: m})
	ia.Evaluate(now)
}

// Timer tag names used by the instance.
const (
	// TagRetry re-evaluates pending Block K invocations.
	TagRetry = "ia-retry"
	// TagSweep triggers periodic decay of logs and histories.
	TagSweep = "ia-sweep"
)

// OnTimer handles this instance's timer tags.
func (ia *Instance) OnTimer(tag protocol.TimerTag) {
	now := ia.rt.Now()
	switch tag.Name {
	case TagRetry:
		ia.Evaluate(now)
	case TagSweep:
		ia.Cleanup(now)
	}
}

// OnMessage records an incoming support/approve/ready message and
// re-evaluates the primitive. from is authenticated by the transport.
func (ia *Instance) OnMessage(from protocol.NodeID, m protocol.Message) {
	if m.G != ia.g {
		return
	}
	switch m.Kind {
	case protocol.Support, protocol.Approve, protocol.Ready:
	default:
		return
	}
	now := ia.rt.Now()
	if ia.ignored(m.M, now) {
		return
	}
	ia.record(ia.noteValue(m.M), m.Kind, from, now)
	ia.Evaluate(now)
}

// Evaluate runs all enabled lines to a fixed point at local time now. The
// iteration set is the maintained live-value list (noteValue), so a quiet
// re-evaluation allocates nothing, and each block hides its window
// queries behind an O(1) record-count guard (msglog.Window.Len): a
// threshold of c distinct senders cannot hold with fewer than c records.
func (ia *Instance) Evaluate(now simtime.Local) {
	for iter := 0; iter < 8; iter++ {
		changed := false
		for i := 0; i < len(ia.act); i++ {
			vs := ia.act[i]
			m := vs.m
			if ia.tryK(m, now) {
				changed = true
			}
			if ia.tryL(m, vs, now) {
				changed = true
			}
			if ia.tryM(m, vs, now) {
				changed = true
			}
			if ia.tryN(m, vs, now) {
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// tryK evaluates Block K for a pending invocation of value m.
//
//	K1. if i_values[G,m′] = ⊥ for every m′ ≠ m  &  lastq(G) = ⊥  &
//	    did not send any (support,G,∗) in [τq−d, τq]  &
//	    lastq(G,m) = ⊥ at τq−d then
//	K2. i_values[G,m] := τq − d;  send (support,G,m) to all;
//	    lastq(G,m) = τq
func (ia *Instance) tryK(m protocol.Value, now simtime.Local) bool {
	recvAt, ok := ia.pending[m]
	if !ok {
		return false
	}
	// Drop stale invocations: Block K is tied to the receipt instant, with
	// a short retry allowance.
	if age := ia.pp.Sub(now, recvAt); age < 0 || age > 2*ia.d() {
		delete(ia.pending, m)
		return false
	}
	if ia.anyOtherIValue(m, now) {
		return false
	}
	if ia.lastG.defined(now, ia.lastGExpiry(), ia.pp) {
		return false
	}
	if ia.hasSupportAny {
		age := ia.pp.Sub(now, ia.lastSupportAny)
		if age >= 0 && age <= ia.d() {
			return false
		}
	}
	if ia.gm(m).definedAt(ia.pp.Add(now, -ia.d()), ia.lastGMExpiry(), ia.pp) {
		return false
	}
	// K2.
	delete(ia.pending, m)
	ia.iValues[m] = ia.pp.Add(now, -ia.d())
	ia.rt.Broadcast(protocol.Message{Kind: protocol.Support, G: ia.g, M: m})
	ia.lastSupportAny = now
	ia.hasSupportAny = true
	ia.markSent(protocol.Support, m, now)
	ia.gm(m).touch(now)
	return true
}

// tryL evaluates Block L for value m.
//
//	L1. support from ≥ n−2f distinct nodes in [τq−α, τq], α ≤ 4d (shortest)
//	L2.   i_values[G,m] := max{i_values[G,m], τq−α−2d}; lastq(G,m) = τq
//	L3. support from ≥ n−f distinct nodes in [τq−2d, τq]
//	L4.   send (approve,G,m) to all; lastq(G,m) = τq
func (ia *Instance) tryL(m protocol.Value, vs *valState, now simtime.Local) bool {
	if vs.support.Len() < ia.pp.ByzQuorum() {
		return false // no support threshold can hold yet (L1 and L3 both need ≥ n−2f records)
	}
	changed := false
	if tc, ok := vs.support.KthNewest(ia.pp.ByzQuorum(), now, ia.pp.Wrap); ok {
		if alpha := ia.pp.Sub(now, tc); alpha >= 0 && alpha <= 4*ia.d() {
			rec := ia.pp.Add(tc, -2*ia.d())
			if cur, ok := ia.iValue(m, now); !ok || ia.pp.Sub(rec, cur) > 0 {
				ia.iValues[m] = rec
				changed = true
			}
			if ia.gm(m).touch(now) {
				changed = true
			}
		}
	}
	if vs.support.CountWithin(2*ia.d(), now, ia.pp.Wrap) >= ia.pp.Quorum() {
		if ia.canSend(protocol.Approve, m, now) {
			ia.rt.Broadcast(protocol.Message{Kind: protocol.Approve, G: ia.g, M: m})
			ia.markSent(protocol.Approve, m, now)
			ia.lineL4[m] = now
			changed = true
		}
		if ia.gm(m).touch(now) {
			changed = true
		}
	}
	return changed
}

// tryM evaluates Block M for value m.
//
//	M1. approve from ≥ n−2f distinct nodes in [τq−5d, τq]
//	M2.   ready_{G,m} = true; lastq(G,m) = τq
//	M3. approve from ≥ n−f distinct nodes in [τq−3d, τq]
//	M4.   send (ready,G,m) to all; lastq(G,m) = τq
func (ia *Instance) tryM(m protocol.Value, vs *valState, now simtime.Local) bool {
	if vs.approve.Len() < ia.pp.ByzQuorum() {
		return false // M1 and M3 both need ≥ n−2f approve records
	}
	changed := false
	if vs.approve.CountWithin(5*ia.d(), now, ia.pp.Wrap) >= ia.pp.ByzQuorum() {
		if at, ok := ia.ready[m]; !ok || at != now {
			ia.ready[m] = now
			changed = true
		}
		if ia.gm(m).touch(now) {
			changed = true
		}
	}
	if vs.approve.CountWithin(3*ia.d(), now, ia.pp.Wrap) >= ia.pp.Quorum() {
		if ia.canSend(protocol.Ready, m, now) {
			ia.rt.Broadcast(protocol.Message{Kind: protocol.Ready, G: ia.g, M: m})
			ia.markSent(protocol.Ready, m, now)
			ia.lineM4[m] = now
			changed = true
		}
		if ia.gm(m).touch(now) {
			changed = true
		}
	}
	return changed
}

// tryN evaluates Block N for value m. Block N is untimed; staleness is
// bounded only by message decay (Δrmv), which the count honors.
//
//	N1. ready_{G,m} & ready from ≥ n−2f distinct nodes
//	N2.   send (ready,G,m) to all; lastq(G,m) = τq
//	N3. ready_{G,m} & ready from ≥ n−f distinct nodes
//	N4.   τG := i_values[G,m]; i_values[G,∗] := ⊥;
//	      remove all (G,m) messages, ignore them for 3d;
//	      I-accept ⟨G,m,τG⟩; lastq(G,m) = τq; lastq(G) := τq
func (ia *Instance) tryN(m protocol.Value, vs *valState, now simtime.Local) bool {
	if !ia.readyDefined(m, now) {
		return false
	}
	if vs.ready.Len() < ia.pp.ByzQuorum() {
		return false // N1 and N3 both need ≥ n−2f ready records
	}
	changed := false
	cnt := vs.ready.CountWithin(ia.pp.DeltaRmv(), now, ia.pp.Wrap)
	if cnt >= ia.pp.ByzQuorum() && ia.canSend(protocol.Ready, m, now) {
		ia.rt.Broadcast(protocol.Message{Kind: protocol.Ready, G: ia.g, M: m})
		ia.markSent(protocol.Ready, m, now)
		changed = true
		if ia.gm(m).touch(now) {
			changed = true
		}
	}
	if cnt >= ia.pp.Quorum() {
		tauG, ok := ia.iValue(m, now)
		if !ok {
			// The candidate recording time decayed (possible only outside
			// the relay precondition); the acceptance cannot anchor.
			return changed
		}
		// N4.
		ia.iValues = make(map[protocol.Value]simtime.Local)
		for _, w := range vs.windows() {
			w.Clear()
		}
		ia.ignoreUntil[m] = ia.pp.Add(now, 3*ia.d())
		ia.gm(m).touch(now)
		ia.lastG.touch(now)
		ia.lineN4[m] = now
		delete(ia.pending, m)
		ia.rt.Trace(protocol.TraceEvent{
			Kind: protocol.EvIAccept, G: ia.g, M: m, TauG: tauG,
		})
		if ia.onIAccept != nil {
			ia.onIAccept(m, tauG)
		}
		return true
	}
	return changed
}

// Cleanup applies the background decay rules.
func (ia *Instance) Cleanup(now simtime.Local) {
	for _, vs := range ia.act {
		for _, w := range vs.windows() {
			w.Decay(ia.pp.DeltaRmv(), now, ia.pp.Wrap)
		}
	}
	ia.lastG.prune(now, ia.lastGExpiry()+2*ia.d(), ia.pp)
	for m, u := range ia.lastGM {
		u.prune(now, ia.lastGMExpiry()+2*ia.d(), ia.pp)
		if len(u.times) == 0 {
			delete(ia.lastGM, m)
		}
	}
	for m := range ia.ready {
		ia.readyDefined(m, now) // deletes when expired
	}
	for m := range ia.iValues {
		ia.iValue(m, now) // deletes when expired
	}
	for k, at := range ia.sent {
		age := ia.pp.Sub(now, at)
		if age < 0 || age > ia.pp.DeltaRmv()+2*ia.d() {
			delete(ia.sent, k)
		}
	}
	for m, until := range ia.ignoreUntil {
		if ia.pp.Sub(now, until) > 0 {
			delete(ia.ignoreUntil, m)
		}
	}
	for m, at := range ia.pending {
		if age := ia.pp.Sub(now, at); age < 0 || age > 2*ia.d() {
			delete(ia.pending, m)
		}
	}
	ia.rebuildActive()
}

// ResetAcceptState clears the acceptance machinery 3d after the agreement
// layer returned a value, per Fig. 1's cleanup ("reset Initiator-Accept").
// The rate-limiting variables lastq(G) and lastq(G,m) survive: their own
// expiry rules in the cleanup block enforce the separation properties
// (IA-4); clearing them here would let a faulty General immediately drive
// a second wave.
func (ia *Instance) ResetAcceptState() {
	ia.clearRecords()
	ia.iValues = make(map[protocol.Value]simtime.Local)
	ia.ready = make(map[protocol.Value]simtime.Local)
	ia.sent = make(map[sentKey]simtime.Local)
	ia.pending = make(map[protocol.Value]simtime.Local)
	ia.hasSupportAny = false
	ia.rebuildActive()
}

// ClearMessages drops received messages only. A correct General calls it
// on itself before initiating ("the General removes from its memory all
// previously received messages associated with any previous invocation").
func (ia *Instance) ClearMessages() {
	ia.clearRecords()
	ia.rebuildActive()
}

// clearRecords drops every reception record.
func (ia *Instance) clearRecords() {
	for _, vs := range ia.act {
		for _, w := range vs.windows() {
			w.Clear()
		}
	}
}

// LineTimes reports when lines L4, M4, N4 last completed for value m, for
// the General's IG3 failure detection. Zero times with false mean never.
func (ia *Instance) LineTimes(m protocol.Value) (l4, m4, n4 simtime.Local, okL, okM, okN bool) {
	l4, okL = ia.lineL4[m]
	m4, okM = ia.lineM4[m]
	n4, okN = ia.lineN4[m]
	return
}
