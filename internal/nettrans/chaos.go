package nettrans

import (
	"fmt"

	"ssbyz/internal/protocol"
	"ssbyz/internal/simnet"
	"ssbyz/internal/simtime"
)

// This file maps the scenario engine's condition schedule (the
// simnet.Condition vocabulary) onto the live socket transport, so
// generated scenarios replay against real sockets — and, since PR 8, it
// is also the byte-level attack engine: the wire-level kinds (wan,
// duplicate, reorder, corrupt, replay, forge) manipulate encoded frames
// on their way to the socket, and the receive pipeline's defenses (codec
// validation, epoch check, source authentication, the d deadline, the
// anti-replay window) are expected to reject them, each rejection
// counted per class. The simulator REJECTS these kinds — simulated
// messages have no bytes to attack (internal/simnet/conditions.go).
//
// The classic kinds map as in PR 5:
//
//   - partition: evaluated at the SEND instant — a message crossing the
//     partition boundary (either direction) inside the window is dropped
//     before it reaches the socket;
//   - churn, sender side: a detached node cannot emit — dropped at send;
//   - churn, receiver side: evaluated at the RECEIVE instant — a frame
//     arriving at a detached node is discarded (its timers keep running,
//     like the paper's recovering nodes);
//   - jitter: extra artificial delay before the socket write.
//
// Environment-class delay (jitter + wan base/jitter/rate deferral) is
// accumulated and clamped to D/2 so the end-to-end delivery stays inside
// the paper's d bound under nominal scheduling (the other half of D
// absorbs host jitter); the clamp used to be silent and is now counted
// (Stats.Clamps). Attack-class delay (a reorder hold) is deliberately
// NOT clamped: holding a frame past d is an attack on the bounded-delay
// axiom, and the receiver's deadline drop is the defense.
//
// All mutable chaos state (per-link sequence counters, rate buckets, the
// replay tape) is touched only from NetNode.Send, which runs on the
// node's single event-loop goroutine — no locks needed, and under
// virtual time the whole attack schedule is deterministic.
//
// Every node of a cluster carries the same schedule (the manifest ships
// it), so both ends agree on the windows up to OS clock quality. The
// model-legality rule is the scenario engine's: drop-class windows
// (partition, churn, corrupt) should only name faulty nodes, or the
// battery's delivery-axiom-dependent checks are void (DESIGN.md §6, §7).

// tapeLen bounds the replay tape: the attacker remembers this many
// recent outgoing frames.
const tapeLen = 64

// chaos is a compiled condition schedule plus the attack engine's
// per-sender state. The zero-length schedule is free: every hook
// returns immediately.
type chaos struct {
	conds     []liveCond
	maxJitter simtime.Duration
	d         simtime.Duration

	needTape bool
	tape     []tapeEntry // ring buffer, send-loop only
	tapeAt   int
	tapeSize int
}

// tapeEntry is one captured outgoing frame the replay attack can
// re-emit: enough to rebuild the envelope with its original send tick
// and to ship it under its original link number.
type tapeEntry struct {
	to      protocol.NodeID
	sent    int64
	num     uint64
	payload []byte
}

type liveCond struct {
	kind        string
	from, until simtime.Real
	member      []bool // indexed by NodeID; nil = every node
	jitter      simtime.Duration

	// wan fields
	group  []int // node -> region index, -1 = no region
	matrix [][]simtime.Duration
	rate   int

	// attack shaping
	stride     int
	copies     int
	lag        simtime.Duration
	crossEpoch bool

	// mutable per-destination state (send-loop only)
	seq        []int64 // frames seen per directed link, for stride/hash
	rateBucket []int64 // current d-window index per link
	rateCount  []int64 // frames in the current window per link
}

func (c *liveCond) active(at simtime.Real) bool {
	return at >= c.from && at < c.until
}

func (c *liveCond) has(id protocol.NodeID) bool {
	return c.member == nil || (int(id) < len(c.member) && c.member[int(id)])
}

// strideHit advances the link's sequence counter and reports whether
// this frame is one the attack acts on (every stride-th, starting with
// the first). The pre-increment sequence value is returned for the
// deterministic per-frame hash.
func (c *liveCond) strideHit(to protocol.NodeID) (int64, bool) {
	s := c.seq[to]
	c.seq[to]++
	stride := c.stride
	if stride <= 1 {
		return s, true
	}
	return s, s%int64(stride) == 0
}

// compileChaos validates the schedule against the cluster size and
// resolves node sets to bitmaps. The vocabulary and structural rules are
// simnet's (ValidateCondition with live=true); maxJitter is the
// environment-delay clamp (D/2) and d the model bound (rate buckets,
// default replay lag, default reorder hold).
func compileChaos(conds []simnet.Condition, n int, maxJitter, d simtime.Duration) (*chaos, error) {
	ch := &chaos{maxJitter: maxJitter, d: d}
	for i, c := range conds {
		if err := simnet.ValidateCondition(i, c, n, true); err != nil {
			return nil, fmt.Errorf("nettrans: %w", err)
		}
		lc := liveCond{
			kind: c.Kind, from: c.From, until: c.Until, jitter: c.Jitter,
			rate: c.Rate, stride: c.Stride, copies: c.Copies,
			lag: c.Lag, crossEpoch: c.CrossEpoch,
		}
		if len(c.Nodes) > 0 {
			lc.member = make([]bool, n)
			for _, id := range c.Nodes {
				lc.member[int(id)] = true
			}
		}
		switch c.Kind {
		case simnet.CondWAN:
			lc.group = make([]int, n)
			for id := range lc.group {
				lc.group[id] = -1
			}
			for gi, grp := range c.Groups {
				for _, id := range grp {
					lc.group[int(id)] = gi
				}
			}
			lc.matrix = c.Matrix
			if lc.rate > 0 {
				lc.rateBucket = make([]int64, n)
				lc.rateCount = make([]int64, n)
				for id := range lc.rateBucket {
					lc.rateBucket[id] = -1
				}
			}
		case simnet.CondReorder:
			if lc.jitter == 0 {
				lc.jitter = d / 2 // in-bound hold: reorder, not loss
			}
		case simnet.CondReplay:
			if lc.lag == 0 && !lc.crossEpoch {
				lc.lag = d + 1 // stale enough to trip the deadline drop
			}
			ch.needTape = true
		case simnet.CondDuplicate:
			if lc.copies == 0 {
				lc.copies = 1
			}
		}
		switch c.Kind {
		case simnet.CondWAN, simnet.CondDuplicate, simnet.CondReorder,
			simnet.CondCorrupt, simnet.CondReplay, simnet.CondForge:
			lc.seq = make([]int64, n)
		}
		ch.conds = append(ch.conds, lc)
	}
	if ch.needTape {
		ch.tape = make([]tapeEntry, tapeLen)
	}
	return ch, nil
}

// sendPlan is what the schedule orders for one outgoing frame. The
// caller (NetNode.Send) executes it and owns every per-class counter.
type sendPlan struct {
	drop  bool             // partition / sender churn ate the message
	delay simtime.Duration // clamped environment delay + reorder hold

	clamped      bool // environment delay hit the D/2 clamp
	rateDeferred bool // a wan bandwidth cap deferred this frame
	reorderHeld  bool // a reorder window holds this frame

	corrupt     bool   // flip one byte of the encoded frame
	corruptSeed uint64 // deterministic byte selector (mod frame length)

	dups int // extra copies a duplicate window emits

	forge protocol.NodeID // claimed sender of an extra forged frame; -1 = none

	replay      bool // re-emit a tape entry
	replayCross bool // ... claiming the next cluster incarnation
	replayLag   simtime.Duration
}

// planSend resolves the schedule at the send instant. Mutates per-link
// attack state; call it exactly once per protocol send, from the event
// loop.
func (ch *chaos) planSend(from, to protocol.NodeID, now simtime.Real) sendPlan {
	plan := sendPlan{forge: -1}
	var envDelay simtime.Duration
	for i := range ch.conds {
		c := &ch.conds[i]
		if !c.active(now) {
			continue
		}
		switch c.kind {
		case simnet.CondPartition:
			if c.has(from) != c.has(to) {
				plan.drop = true
				return plan
			}
		case simnet.CondChurn:
			if c.has(from) {
				plan.drop = true
				return plan
			}
		case simnet.CondJitter:
			if c.member == nil || c.has(from) || c.has(to) {
				envDelay += c.jitter
			}
		case simnet.CondWAN:
			seq, _ := c.strideHit(to)
			ga, gb := c.group[from], c.group[to]
			if ga >= 0 && gb >= 0 {
				envDelay += c.matrix[ga][gb]
			}
			if c.jitter > 0 {
				envDelay += simtime.Duration(mix64(uint64(i), uint64(from), uint64(to), uint64(seq)) % uint64(c.jitter+1))
			}
			if c.rate > 0 {
				bucket := int64((now - c.from) / simtime.Real(ch.d))
				if c.rateBucket[to] != bucket {
					c.rateBucket[to] = bucket
					c.rateCount[to] = 0
				}
				c.rateCount[to]++
				if c.rateCount[to] > int64(c.rate) {
					// Over the cap: defer to the start of the next window.
					bucketEnd := c.from + simtime.Real(bucket+1)*simtime.Real(ch.d)
					envDelay += simtime.Duration(bucketEnd - now)
					plan.rateDeferred = true
				}
			}
		case simnet.CondDuplicate:
			if c.member == nil || c.has(from) || c.has(to) {
				if _, hit := c.strideHit(to); hit {
					plan.dups += c.copies
				}
			}
		case simnet.CondReorder:
			if c.member == nil || c.has(from) || c.has(to) {
				if _, hit := c.strideHit(to); hit {
					plan.delay += c.jitter // attack hold: NOT clamped
					plan.reorderHeld = true
				}
			}
		case simnet.CondCorrupt:
			if c.has(from) {
				if seq, hit := c.strideHit(to); hit {
					plan.corrupt = true
					plan.corruptSeed = mix64(uint64(i), uint64(from), uint64(to), uint64(seq))
				}
			}
		case simnet.CondReplay:
			if c.has(from) {
				if _, hit := c.strideHit(to); hit {
					plan.replay = true
					plan.replayCross = c.crossEpoch
					plan.replayLag = c.lag
				}
			}
		case simnet.CondForge:
			if c.has(from) {
				if seq, hit := c.strideHit(to); hit {
					// Claim some OTHER node's identity, deterministically.
					n := len(c.seq)
					v := protocol.NodeID((int(from) + 1 + int(mix64(uint64(i), uint64(from), uint64(to), uint64(seq))%uint64(n-1))) % n)
					plan.forge = v
				}
			}
		}
	}
	if envDelay > ch.maxJitter {
		envDelay = ch.maxJitter
		plan.clamped = true
	}
	plan.delay += envDelay
	return plan
}

// capture records one outgoing frame, numbered num on its link, on the
// replay tape (send loop only; no-op unless a replay window exists).
func (ch *chaos) capture(to protocol.NodeID, sent int64, num uint64, payload []byte) {
	if !ch.needTape {
		return
	}
	e := &ch.tape[ch.tapeAt]
	e.to = to
	e.sent = sent
	e.num = num
	e.payload = append(e.payload[:0], payload...)
	ch.tapeAt = (ch.tapeAt + 1) % tapeLen
	if ch.tapeSize < tapeLen {
		ch.tapeSize++
	}
}

// pickReplay chooses the tape entry a replay attack re-emits: for a
// cross-epoch replay any frame works (the epoch alone damns it), so the
// newest is used; for a stale replay, the oldest frame at least lag
// ticks old. Returns nil when the tape has nothing suitable yet.
func (ch *chaos) pickReplay(now simtime.Real, lag simtime.Duration, cross bool) *tapeEntry {
	if ch.tapeSize == 0 {
		return nil
	}
	if cross {
		newest := (ch.tapeAt - 1 + tapeLen) % tapeLen
		return &ch.tape[newest]
	}
	oldest := 0
	if ch.tapeSize == tapeLen {
		oldest = ch.tapeAt
	}
	for k := 0; k < ch.tapeSize; k++ {
		e := &ch.tape[(oldest+k)%tapeLen]
		if int64(now)-e.sent >= int64(lag) {
			return e
		}
	}
	return nil
}

// onRecv reports whether a receiver-side churn window discards a frame
// arriving at node `to` now.
func (ch *chaos) onRecv(to protocol.NodeID, now simtime.Real) bool {
	for i := range ch.conds {
		c := &ch.conds[i]
		if c.kind == simnet.CondChurn && c.active(now) && c.has(to) {
			return true
		}
	}
	return false
}

// mix64 is a splitmix64-style hash over the attack coordinates — the
// deterministic entropy source of per-frame WAN jitter, corruption byte
// selection, and forged-identity choice (no shared RNG: the schedule
// must replay byte-identically under virtual time regardless of node
// scheduling).
func mix64(a, b, c, d uint64) uint64 {
	z := a*0x9e3779b97f4a7c15 ^ b*0xbf58476d1ce4e5b9 ^ c*0x94d049bb133111eb ^ d + 0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}
