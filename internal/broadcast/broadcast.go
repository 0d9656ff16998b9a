// Package broadcast implements the msgd-broadcast primitive (Fig. 3): a
// message-driven replacement for the time-driven reliable broadcast of
// Toueg, Perry and Srikanth [TPS-87]. Rounds are anchored at the local
// estimate τG of the General's initiation (produced by Initiator-Accept)
// and progress with the arrival of the anticipated messages; the phase
// bounds τG + c·Φ only cap how late a step may still be taken, so the
// primitive "can progress at the speed of message delivery".
//
// Once the system is stable and n > 3f it satisfies (Theorem 2):
//
//	TPS-1 Correctness — a timely correct broadcast is accepted by every
//	      correct node within one phase and within 3d real time.
//	TPS-2 Unforgeability — no acceptance without a correct broadcast.
//	TPS-3 Relay — one correct acceptance at phase r pulls all correct
//	      nodes along by phase r+2.
//	TPS-4 Detection of broadcasters — acceptance implies every correct
//	      node records p ∈ broadcasters by phase 2k+2.
package broadcast

import (
	"cmp"
	"slices"

	"ssbyz/internal/msglog"
	"ssbyz/internal/protocol"
	"ssbyz/internal/simtime"
)

// triple identifies one broadcast (p, m, k) within a session.
type triple struct {
	P protocol.NodeID
	M protocol.Value
	K int
}

// AcceptFn is called when the node accepts (p, m, k).
type AcceptFn func(p protocol.NodeID, m protocol.Value, k int)

// tripleState consolidates every per-triple flag and the reception windows
// of the triple's four message classes into a single map entry, so the
// fixed-point evaluator touches one hash per triple per message instead
// of one per flag or message class (the message-processing hot path,
// DESIGN.md §5).
type tripleState struct {
	tr            triple
	sentEcho      bool
	sentInitPrime bool
	sentEchoPrime bool
	// accepted dedupes acceptances per triple ("accept only once"). It
	// deliberately survives Reset: straggler echo′ residue of a completed
	// agreement arrives within d of the reset, gets logged into the fresh
	// session, and would otherwise re-accept — and re-decide — the old
	// value when the next agreement anchors. The flag decays by age in
	// Cleanup instead, which bounds the memory exactly like the paper's
	// "erase any value or message older than (2f+3)·Φ" rule. Legitimate
	// same-value re-broadcasts are spaced by Δv > (2f+3)·Φ (criterion
	// IG2), so they are never suppressed.
	accepted   bool
	acceptedAt simtime.Local
	// inAct marks membership of the active iteration list (s.act).
	inAct bool
	// The reception records of (init|echo|init′|echo′, p, m, k).
	init, echo, initPrime, echoPrime msglog.Window
}

// window picks the reception window of a message kind; kinds outside the
// primitive's four have none.
func (st *tripleState) window(kind protocol.MsgKind) *msglog.Window {
	switch kind {
	case protocol.Init:
		return &st.init
	case protocol.Echo:
		return &st.echo
	case protocol.InitPrime:
		return &st.initPrime
	case protocol.EchoPrime:
		return &st.echoPrime
	}
	return nil
}

// windows lists the triple's four reception windows.
func (st *tripleState) windows() []*msglog.Window {
	return []*msglog.Window{&st.init, &st.echo, &st.initPrime, &st.echoPrime}
}

// Session is one node's msgd-broadcast state for the agreement instance of
// a single General G. Messages are logged before the anchor τG is known
// and replayed once it is ("nodes log messages until they are able to
// process them").
type Session struct {
	rt protocol.Runtime
	g  protocol.NodeID
	pp protocol.Params

	// seq stamps each reception window's first record (msglog.Window).
	seq uint64

	anchored bool
	tauG     simtime.Local

	states map[triple]*tripleState
	// act lists the triples the evaluator iterates, in first-seen order
	// (deterministic). It is appended to as messages arrive and rebuilt
	// from the surviving records on Cleanup/Reset, so settled or decayed
	// triples stop costing evaluator passes.
	act []*tripleState
	// byP caches the latest triple resolution per broadcasting node p.
	// During one agreement almost every message for p carries the same
	// (m, k), so the per-arrival states-map hash collapses to an indexed
	// compare. Entries are dropped wholesale on Cleanup/Reset (the only
	// points that delete tripleStates).
	byP []cachedTriple

	// broadcasters is a bitmap over node IDs with nBroadcasters its
	// popcount: Block Y3 membership is tested on every post-settlement
	// arrival, so it must not cost a map probe.
	broadcasters []uint64
	nBroadcaster int

	onAccept AcceptFn
}

// cachedTriple is one byP entry: the last (m, k) resolved for p.
type cachedTriple struct {
	m  protocol.Value
	k  int
	st *tripleState
}

// NewSession creates the session for General g at the node owning rt.
func NewSession(rt protocol.Runtime, g protocol.NodeID, onAccept AcceptFn) *Session {
	pp := rt.Params()
	return &Session{
		rt:           rt,
		g:            g,
		pp:           pp,
		states:       make(map[triple]*tripleState),
		byP:          make([]cachedTriple, pp.N),
		broadcasters: make([]uint64, (pp.N+63)/64),
		onAccept:     onAccept,
	}
}

// isBroadcaster tests p's bit. IDs outside [0, 64·len) (possible only in
// hostile messages) are never set.
func (s *Session) isBroadcaster(p protocol.NodeID) bool {
	w := uint(p) >> 6
	return p >= 0 && int(w) < len(s.broadcasters) && s.broadcasters[w]&(1<<(uint(p)&63)) != 0
}

// setBroadcaster adds p to the broadcasters set (Block Y3), growing the
// bitmap for hostile out-of-range IDs so they still count once each.
func (s *Session) setBroadcaster(p protocol.NodeID) {
	if p < 0 || s.isBroadcaster(p) {
		return
	}
	w := uint(p) >> 6
	for int(w) >= len(s.broadcasters) {
		s.broadcasters = append(s.broadcasters, 0)
	}
	s.broadcasters[w] |= 1 << (uint(p) & 63)
	s.nBroadcaster++
}

// SetAnchor installs τG and replays any logged messages against the now-
// defined round structure. "No correct node will execute the
// msgd-broadcast primitive without first producing the reference
// (anchor) τG."
func (s *Session) SetAnchor(tauG simtime.Local) {
	s.anchored = true
	s.tauG = tauG
	s.evaluate(s.rt.Now())
}

// Anchored reports whether τG is defined.
func (s *Session) Anchored() bool { return s.anchored }

// Broadcast invokes the primitive for this node's own message (Block V):
// node p sends (init, p, m, k) to all nodes.
func (s *Session) Broadcast(m protocol.Value, k int) {
	s.rt.Broadcast(protocol.Message{
		Kind: protocol.Init, G: s.g, M: m, P: s.rt.ID(), K: k,
	})
}

// Broadcasters returns how many distinct nodes are in the broadcasters
// set (Block Y3), as needed by the agreement layer's Block T.
func (s *Session) Broadcasters() int { return s.nBroadcaster }

// IsBroadcaster reports membership of p in broadcasters.
func (s *Session) IsBroadcaster(p protocol.NodeID) bool { return s.isBroadcaster(p) }

// note returns (creating and activating if needed) the state of tr.
func (s *Session) note(tr triple) *tripleState {
	var cache *cachedTriple
	if tr.P >= 0 && int(tr.P) < len(s.byP) {
		cache = &s.byP[tr.P]
		if cache.st != nil && cache.m == tr.M && cache.k == tr.K {
			st := cache.st
			if !st.inAct {
				st.inAct = true
				s.act = append(s.act, st)
			}
			return st
		}
	}
	st, ok := s.states[tr]
	if !ok {
		st = &tripleState{tr: tr}
		s.states[tr] = st
	}
	if cache != nil {
		*cache = cachedTriple{m: tr.M, k: tr.K, st: st}
	}
	if !st.inAct {
		st.inAct = true
		s.act = append(s.act, st)
	}
	return st
}

// record logs sender's kind message for st at local time at. The echo
// classes collect up to n distinct senders each; presizing them skips the
// append-growth copies (init holds only p's own record).
func (s *Session) record(st *tripleState, kind protocol.MsgKind, sender protocol.NodeID, at simtime.Local) {
	hint := s.pp.N
	if kind == protocol.Init {
		hint = 0
	}
	st.window(kind).Record(sender, at, hint, s.pp.Wrap, &s.seq)
}

// dropTripleCache forgets every byP resolution; called whenever states-map
// entries may have been deleted.
func (s *Session) dropTripleCache() {
	for i := range s.byP {
		s.byP[i] = cachedTriple{}
	}
}

// OnMessage records an incoming broadcast-layer message and re-evaluates.
func (s *Session) OnMessage(from protocol.NodeID, m protocol.Message) {
	if m.G != s.g {
		return
	}
	now := s.rt.Now()
	switch m.Kind {
	case protocol.Init:
		// W2 requires the init to come from p itself; the transport
		// authenticates From, so a faulty node cannot plant an init for
		// another p.
		if from != m.P {
			return
		}
	case protocol.Echo, protocol.InitPrime, protocol.EchoPrime:
	default:
		return
	}
	st := s.note(triple{P: m.P, M: m.M, K: m.K})
	s.record(st, m.Kind, from, now)
	// Only the triple's own conditions can newly hold: counts are keyed by
	// the exact (p, m, k) and the phase windows only ever close with time,
	// so re-evaluation is scoped to the affected triple (DESIGN.md §5).
	if s.anchored {
		s.evalTriple(st, now)
	}
}

// maxAge is the cleanup bound: messages older than (2f+3)·Φ are removed
// and never satisfy a condition.
func (s *Session) maxAge() simtime.Duration {
	return simtime.Duration(2*s.pp.F+3) * s.pp.Phi()
}

// withinPhase reports whether the node's current τ is at most
// τG + phases·Φ, the late bound for the corresponding block.
func (s *Session) withinPhase(now simtime.Local, phases int) bool {
	return s.pp.Sub(now, s.tauG) <= simtime.Duration(phases)*s.pp.Phi()
}

// evaluate runs blocks W–Z to a fixed point across every active triple
// (the anchor-install replay path). Triples are independent — no block's
// condition reads another triple's counts or flags — so the fixed point
// factors into one per triple.
func (s *Session) evaluate(now simtime.Local) {
	if !s.anchored {
		return
	}
	for _, st := range s.act {
		s.evalTriple(st, now)
	}
}

// evalTriple runs blocks W–Z for one triple to a fixed point.
func (s *Session) evalTriple(st *tripleState, now simtime.Local) {
	for iter := 0; iter < 6; iter++ {
		if !s.tryTriple(st, now) {
			return
		}
	}
}

// tryTriple evaluates all blocks for one (p, m, k).
//
// Each block's window query sits behind an O(1) incremental-count guard
// (msglog.Window.Len, the live record count of the class): a threshold of
// c distinct senders cannot hold while fewer than c records exist at all,
// so below-threshold arrivals — the bulk of a broadcast wave — conclude in
// constant time, and the binary searches run only in the narrow band where
// a block could actually fire (DESIGN.md §5).
func (s *Session) tryTriple(st *tripleState, now simtime.Local) bool {
	tr, wrap := st.tr, s.pp.Wrap
	if st.sentEcho && st.sentInitPrime && st.sentEchoPrime && st.accepted && s.isBroadcaster(tr.P) {
		// Settled: every send fired, the acceptance fired, and p is a
		// known broadcaster — no block can conclude anything new, so a
		// post-threshold arrival is an O(1) drop.
		return false
	}
	changed := false
	byzQ, q := s.pp.ByzQuorum(), s.pp.Quorum()

	// Block W — echo the direct init, by τG + 2k·Φ.
	if !st.sentEcho && s.withinPhase(now, 2*tr.K) && st.init.Has(tr.P) {
		st.sentEcho = true
		s.rt.Broadcast(protocol.Message{Kind: protocol.Echo, G: s.g, M: tr.M, P: tr.P, K: tr.K})
		changed = true
	}

	// Block X — by τG + (2k+1)·Φ.
	if (!st.sentInitPrime || !st.accepted) && st.echo.Len() >= byzQ &&
		s.withinPhase(now, 2*tr.K+1) {
		nEcho := st.echo.CountWithin(s.maxAge(), now, wrap)
		if !st.sentInitPrime && nEcho >= byzQ {
			st.sentInitPrime = true
			s.rt.Broadcast(protocol.Message{Kind: protocol.InitPrime, G: s.g, M: tr.M, P: tr.P, K: tr.K})
			changed = true
		}
		if nEcho >= q && s.accept(tr, st) {
			changed = true
		}
	}

	// Block Y — by τG + (2k+2)·Φ.
	if (!st.sentEchoPrime || !s.isBroadcaster(tr.P)) && st.initPrime.Len() >= byzQ &&
		s.withinPhase(now, 2*tr.K+2) {
		nInitPrime := st.initPrime.CountWithin(s.maxAge(), now, wrap)
		if nInitPrime >= byzQ && !s.isBroadcaster(tr.P) {
			s.setBroadcaster(tr.P)
			changed = true
		}
		if !st.sentEchoPrime && nInitPrime >= q {
			st.sentEchoPrime = true
			s.rt.Broadcast(protocol.Message{Kind: protocol.EchoPrime, G: s.g, M: tr.M, P: tr.P, K: tr.K})
			changed = true
		}
	}

	// Block Z — at any time.
	if (!st.sentEchoPrime || !st.accepted) && st.echoPrime.Len() >= byzQ {
		nEchoPrime := st.echoPrime.CountWithin(s.maxAge(), now, wrap)
		if !st.sentEchoPrime && nEchoPrime >= byzQ {
			st.sentEchoPrime = true
			s.rt.Broadcast(protocol.Message{Kind: protocol.EchoPrime, G: s.g, M: tr.M, P: tr.P, K: tr.K})
			changed = true
		}
		if nEchoPrime >= q && s.accept(tr, st) {
			changed = true
		}
	}
	return changed
}

// accept fires the acceptance of tr exactly once.
func (s *Session) accept(tr triple, st *tripleState) bool {
	if st.accepted {
		return false
	}
	st.accepted = true
	st.acceptedAt = s.rt.Now()
	s.rt.Trace(protocol.TraceEvent{
		Kind: protocol.EvAccept, G: s.g, M: tr.M, K: tr.K, P: tr.P,
	})
	if s.onAccept != nil {
		s.onAccept(tr.P, tr.M, tr.K)
	}
	return true
}

// Cleanup decays messages and acceptance records older than (2f+3)·Φ and
// drops settled triples from the evaluator's iteration list. The triples
// still holding records are relisted in the order of their oldest
// surviving window's first record (msglog.FirstStamp), so the evaluation,
// and with it the send order, never follows the states map's order.
func (s *Session) Cleanup(now simtime.Local) {
	maxAge, wrap := s.maxAge(), s.pp.Wrap
	clear(s.act)
	s.act = s.act[:0]
	for _, st := range s.states {
		for _, w := range st.windows() {
			w.Decay(maxAge, now, wrap)
		}
		_, st.inAct = msglog.FirstStamp(st.windows())
		if st.inAct {
			s.act = append(s.act, st)
		}
	}
	slices.SortFunc(s.act, func(a, b *tripleState) int {
		fa, _ := msglog.FirstStamp(a.windows())
		fb, _ := msglog.FirstStamp(b.windows())
		return cmp.Compare(fa, fb)
	})
	for tr, st := range s.states {
		if st.accepted {
			age := s.pp.Sub(now, st.acceptedAt)
			if age < 0 || age > s.maxAge() {
				st.accepted = false
			}
		}
		if !st.accepted && !st.inAct && !st.sentEcho && !st.sentInitPrime && !st.sentEchoPrime {
			delete(s.states, tr)
		}
	}
	s.dropTripleCache()
}

// Reset clears the session (3d after the agreement layer returned). The
// accepted-triple dedup flags survive — see the tripleState field comment.
func (s *Session) Reset() {
	s.anchored = false
	s.tauG = 0
	clear(s.act)
	s.act = s.act[:0]
	for tr, st := range s.states {
		if !st.accepted {
			delete(s.states, tr)
			continue
		}
		for _, w := range st.windows() {
			w.Clear()
		}
		st.sentEcho = false
		st.sentInitPrime = false
		st.sentEchoPrime = false
		st.inAct = false
	}
	s.dropTripleCache()
	for i := range s.broadcasters {
		s.broadcasters[i] = 0
	}
	s.nBroadcaster = 0
}

// InjectRecord installs a spurious reception record of one of the four
// broadcast kinds (transient injector); other kinds are ignored.
func (s *Session) InjectRecord(kind protocol.MsgKind, tr protocol.Message, sender protocol.NodeID, at simtime.Local) {
	st := s.note(triple{P: tr.P, M: tr.M, K: tr.K})
	if st.window(kind) != nil {
		s.record(st, kind, sender, at)
	}
}

// InjectBroadcaster plants p in the broadcasters set (transient injector).
func (s *Session) InjectBroadcaster(p protocol.NodeID) { s.setBroadcaster(p) }

// InjectAnchor plants an arbitrary anchor (transient injector).
func (s *Session) InjectAnchor(tauG simtime.Local) {
	s.anchored = true
	s.tauG = tauG
}
