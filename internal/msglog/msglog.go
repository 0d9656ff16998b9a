// Package msglog implements the time-stamped reception records every node
// keeps: per message class, the latest local reception time of each
// distinct sender, with distinct-sender counting over sliding local-time
// windows, shortest-interval queries (Block L of Initiator-Accept), and
// age-based decay (the cleanup rules).
//
// The paper requires each node to "record the local-time at which it
// receives each message" and to evaluate conditions of the form "received
// X from ≥ c distinct nodes in the interval [τq − α, τq]". Records with
// timestamps in the future (possible only as transient-fault residue) are
// "clearly wrong" and are ignored by window queries and removed by decay.
//
// Layout. One message class is a Window, a value its owner embeds in the
// state it already keeps per value or per broadcast triple, so a record
// costs no map probe and no pointer chase beyond that state. A Window
// holds one record per distinct sender (the latest reception), kept in a
// slice sorted oldest→newest by wrap-aware reception time, plus a sender
// bitmap for O(1) duplicate replacement and the newest reception time
// inline, so an in-order arrival appends without loading the slice. Window
// queries are two binary searches over the sorted slice — O(log s) for s
// senders, with no allocation — because counting distinct senders in
// [now−α, now] is exactly counting records in that age range. Log is a
// keyed map of Windows for callers without state of their own.
//
// Wrapped clocks. Sortedness is maintained with the same WrapSub
// arithmetic the queries use, so results are exact whenever the live
// records of a window span less than wrap/2 — the paper's own premise
// ("the local time wrap around is larger than a constant factor of the
// maximal interval of time need to be measured"), guaranteed in steady
// state by decay at Δrmv ≪ wrap. Arbitrary transient residue can violate
// that span until the first decay sweep; during that interval the slice
// may not be age-sorted and windowed counts can be inexact in either
// direction (never exceeding the number of distinct senders — each is
// recorded once). That is within the self-stabilization model: a
// transiently corrupted node may behave arbitrarily until cleanup, and
// Decay removes the out-of-span records and re-sorts the survivors,
// restoring exactness.
package msglog

import (
	"ssbyz/internal/protocol"
	"ssbyz/internal/simtime"
)

// rec is one reception record: the latest local receive time of one
// distinct sender.
type rec struct {
	at     simtime.Local
	sender protocol.NodeID
}

// seenWords sizes the inline sender bitmap: 4 words cover IDs < 256, the
// full committee range the substrate targets, without a pointer chase on
// the per-arrival duplicate test. Larger IDs spill to the overflow slice.
const seenWords = 4

// Window holds one message class's records, sorted oldest→newest
// (wrap-aware). The zero value is an empty window. seen is a sender
// bitmap: senders are dense in [0, N) (the transports authenticate
// identities), so one bit per sender answers the duplicate test in O(1)
// with no hashing. newest equals recs[len(recs)-1].at whenever the window
// holds a record.
//
// stamp orders an owner's windows: the record that makes a window
// non-empty draws the next value of its owner's counter, so the owner can
// list the windows holding records in first-record order (deterministic,
// where its maps are not) without a list of its own.
type Window struct {
	recs     []rec
	newest   simtime.Local
	stamp    uint64
	seen     [seenWords]uint64
	seenOver []uint64 // bits for senders ≥ 64·seenWords
}

// Has reports whether sender holds a record (bitmap test).
func (w *Window) Has(sender protocol.NodeID) bool {
	i := uint(sender) >> 6
	if i < seenWords {
		return w.seen[i]&(1<<(uint(sender)&63)) != 0
	}
	i -= seenWords
	return int(i) < len(w.seenOver) && w.seenOver[i]&(1<<(uint(sender)&63)) != 0
}

// setSender marks sender as recorded, growing the overflow as needed.
func (w *Window) setSender(sender protocol.NodeID) {
	i := uint(sender) >> 6
	if i < seenWords {
		w.seen[i] |= 1 << (uint(sender) & 63)
		return
	}
	i -= seenWords
	for int(i) >= len(w.seenOver) {
		w.seenOver = append(w.seenOver, 0)
	}
	w.seenOver[i] |= 1 << (uint(sender) & 63)
}

// clearSender removes sender from the bitmap.
func (w *Window) clearSender(sender protocol.NodeID) {
	i := uint(sender) >> 6
	if i < seenWords {
		w.seen[i] &^= 1 << (uint(sender) & 63)
		return
	}
	i -= seenWords
	if int(i) < len(w.seenOver) {
		w.seenOver[i] &^= 1 << (uint(sender) & 63)
	}
}

// Record notes that sender's message was received at local time now.
// Repeated messages from the same sender keep only the latest reception
// ("multiple messages sent by an individual node are ignored"). Senders
// must be non-negative (IDs are dense in [0, N) and the transports
// authenticate them); a negative sender is dropped. The record that makes
// the window non-empty stamps it with the next value of *seq, and, if the
// slice has no capacity yet, presizes it for hint senders, sparing the
// quorum-sized classes (echo waves collect ~n records each) the
// append-growth copies.
func (w *Window) Record(sender protocol.NodeID, now simtime.Local, hint int, wrap simtime.Duration, seq *uint64) {
	if sender < 0 {
		return
	}
	if len(w.recs) == 0 {
		if cap(w.recs) == 0 && hint > 0 {
			w.recs = make([]rec, 0, hint)
		}
		*seq++
		w.stamp = *seq
	} else if w.Has(sender) {
		// Duplicate: only the latest reception is kept. Duplicates cannot
		// occur from correct nodes (sends are suppressed per kind), so the
		// linear scan is off the hot path.
		w.removeRec(sender)
	}
	w.setSender(sender)
	if len(w.recs) == 0 || simtime.WrapSub(w.newest, now, wrap) <= 0 {
		// In order: records arrive in (nearly) nondecreasing local time.
		w.recs = append(w.recs, rec{at: now, sender: sender})
		w.newest = now
		return
	}
	// Insert in sorted position, scanning from the newest end.
	i := len(w.recs)
	w.recs = append(w.recs, rec{})
	for i > 0 && simtime.WrapSub(w.recs[i-1].at, now, wrap) > 0 {
		w.recs[i] = w.recs[i-1]
		i--
	}
	w.recs[i] = rec{at: now, sender: sender}
}

// removeRec deletes sender's record from the slice.
func (w *Window) removeRec(sender protocol.NodeID) {
	for i := len(w.recs) - 1; i >= 0; i-- {
		if w.recs[i].sender == sender {
			copy(w.recs[i:], w.recs[i+1:])
			w.recs = w.recs[:len(w.recs)-1]
			break
		}
	}
	if n := len(w.recs); n > 0 {
		w.newest = w.recs[n-1].at
	}
}

// Len returns how many records the window holds, in O(1). It is the
// incremental support counter of the threshold fast paths: bumped on
// insert, lowered when decay closes the window, and always ≥ any windowed
// count (window queries only ever exclude records), so Len < c proves
// CountWithin and KthNewest would miss a threshold of c without running
// the binary searches.
func (w *Window) Len() int { return len(w.recs) }

// FirstStamp returns the smallest stamp among the windows holding
// records, and false when none does: the order key of an owner's state
// that holds several windows.
func FirstStamp(ws []*Window) (uint64, bool) {
	first, ok := uint64(0), false
	for _, w := range ws {
		if len(w.recs) > 0 && (!ok || w.stamp < first) {
			first, ok = w.stamp, true
		}
	}
	return first, ok
}

// firstWithin returns the index of the first record with age ≤ width at
// local time now. Ages are nonincreasing along the sorted slice, so the
// predicate is monotone and a binary search applies.
func (w *Window) firstWithin(width simtime.Duration, now simtime.Local, wrap simtime.Duration) int {
	lo, hi := 0, len(w.recs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if simtime.WrapSub(now, w.recs[mid].at, wrap) <= width {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// firstFuture returns the index of the first future-stamped record (age
// < 0) at local time now; records at and beyond it are ignored by every
// query ("clearly wrong").
func (w *Window) firstFuture(now simtime.Local, wrap simtime.Duration) int {
	return w.firstWithin(-1, now, wrap)
}

// CountWithin returns the number of distinct senders whose latest record
// lies in the window [now−width, now]. Future-stamped records are not
// counted. Cost: O(log s), allocation-free.
func (w *Window) CountWithin(width simtime.Duration, now simtime.Local, wrap simtime.Duration) int {
	return w.firstFuture(now, wrap) - w.firstWithin(width, now, wrap)
}

// KthNewest returns the reception time of the k-th most recent distinct
// sender (k ≥ 1), ignoring future-stamped records. The second result is
// false when fewer than k distinct senders are recorded.
//
// It drives the shortest-interval condition of Line L1: the minimal α such
// that [now−α, now] contains ≥ c distinct senders is now − KthNewest(c).
// Cost: O(log s), allocation-free.
func (w *Window) KthNewest(k int, now simtime.Local, wrap simtime.Duration) (simtime.Local, bool) {
	if k <= 0 {
		return 0, false
	}
	j := w.firstFuture(now, wrap)
	if j < k {
		return 0, false
	}
	return w.recs[j-k].at, true
}

// Decay removes every record whose age exceeds maxAge, as well as
// future-stamped records (clearly wrong per the paper). It implements the
// cleanup rules ("Remove any value or message that is older than Δrmv")
// and, as a side effect, restores exact sortedness after transient residue
// (all survivors fit one wrap/2 span relative to now). The slice keeps its
// capacity, and the stamp stands while a record survives.
func (w *Window) Decay(maxAge simtime.Duration, now simtime.Local, wrap simtime.Duration) {
	kept := w.recs[:0]
	for _, r := range w.recs {
		age := simtime.WrapSub(now, r.at, wrap)
		if age < 0 || age > maxAge {
			w.clearSender(r.sender)
			continue
		}
		kept = append(kept, r)
	}
	w.recs = kept
	// Insertion sort by age: survivors are nearly sorted already, and
	// re-sorting here is what repairs any ordering damage done by
	// wrap-anomalous residue.
	for i := 1; i < len(w.recs); i++ {
		r := w.recs[i]
		j := i
		for j > 0 && simtime.WrapSub(now, w.recs[j-1].at, wrap) < simtime.WrapSub(now, r.at, wrap) {
			w.recs[j] = w.recs[j-1]
			j--
		}
		w.recs[j] = r
	}
	if n := len(w.recs); n > 0 {
		w.newest = w.recs[n-1].at
	} else {
		w.newest = 0
	}
}

// Clear removes every record, keeping the slice's capacity (used when an
// instance resets and by Line N4's "remove all (G,m) messages").
func (w *Window) Clear() {
	w.recs = w.recs[:0]
	w.newest = 0
	w.stamp = 0
	w.seen = [seenWords]uint64{}
	clear(w.seenOver)
}

// Key identifies one message class. For Initiator-Accept messages P and K
// are zero; for msgd-broadcast messages M, P, K identify the triple.
type Key struct {
	Kind protocol.MsgKind
	G    protocol.NodeID
	M    protocol.Value
	P    protocol.NodeID
	K    int
}

// Log is a keyed map of Windows, for callers that keep no state per
// message class of their own. The zero value is not usable; use New.
type Log struct {
	wrap simtime.Duration
	seq  uint64
	recs map[Key]*Window
}

// New returns an empty log whose window arithmetic honors the given
// local-clock wrap modulus (0 disables wrapping).
func New(wrap simtime.Duration) *Log {
	return &Log{wrap: wrap, recs: make(map[Key]*Window)}
}

// Record notes that sender's message for key was received at local time
// now (Window.Record).
func (l *Log) Record(key Key, sender protocol.NodeID, now simtime.Local) {
	w, ok := l.recs[key]
	if !ok {
		w = &Window{}
		l.recs[key] = w
	}
	w.Record(sender, now, 0, l.wrap, &l.seq)
}

// CountWithin is Window.CountWithin for key's window.
func (l *Log) CountWithin(key Key, width simtime.Duration, now simtime.Local) int {
	w, ok := l.recs[key]
	if !ok {
		return 0
	}
	return w.CountWithin(width, now, l.wrap)
}

// KthNewest is Window.KthNewest for key's window.
func (l *Log) KthNewest(key Key, k int, now simtime.Local) (simtime.Local, bool) {
	w, ok := l.recs[key]
	if !ok {
		return 0, false
	}
	return w.KthNewest(k, now, l.wrap)
}
