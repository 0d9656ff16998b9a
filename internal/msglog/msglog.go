// Package msglog implements the time-stamped message log every node keeps:
// reception records per (kind, G, m, p, k) with distinct-sender counting
// over sliding local-time windows, shortest-interval queries (Block L of
// Initiator-Accept), and age-based decay (the cleanup rules).
//
// The paper requires each node to "record the local-time at which it
// receives each message" and to evaluate conditions of the form "received
// X from ≥ c distinct nodes in the interval [τq − α, τq]". Records with
// timestamps in the future (possible only as transient-fault residue) are
// "clearly wrong" and are ignored by window queries and removed by decay.
//
// Layout. Each key holds one record per distinct sender (the latest
// reception), kept in a slice sorted oldest→newest by wrap-aware reception
// time, plus a sender index for O(1) duplicate replacement. Window queries
// are two binary searches over the sorted slice — O(log s) for s senders,
// with no allocation — because counting distinct senders in [now−α, now]
// is exactly counting records in that age range. Keys iterate in first-
// recording order, so enumeration is deterministic (maps are not).
//
// Wrapped clocks. Sortedness is maintained with the same WrapSub
// arithmetic the queries use, so results are exact whenever the live
// records of a key span less than wrap/2 — the paper's own premise ("the
// local time wrap around is larger than a constant factor of the maximal
// interval of time need to be measured"), guaranteed in steady state by
// decay at Δrmv ≪ wrap. Arbitrary transient residue can violate that
// span until the first decay sweep; during that interval the slice may
// not be age-sorted and windowed counts can be inexact in either
// direction (never exceeding the number of distinct senders — each is
// recorded once). That is within the self-stabilization model: a
// transiently corrupted node may behave arbitrarily until cleanup, and
// DecayOlderThan removes the out-of-span records and re-sorts the
// survivors, restoring exactness.
package msglog

import (
	"ssbyz/internal/protocol"
	"ssbyz/internal/simtime"
)

// Key identifies one message class. For Initiator-Accept messages P and K
// are zero; for msgd-broadcast messages M, P, K identify the triple.
type Key struct {
	Kind protocol.MsgKind
	G    protocol.NodeID
	M    protocol.Value
	P    protocol.NodeID
	K    int
}

// KeyOf derives the log key from a wire message.
func KeyOf(m protocol.Message) Key {
	switch m.Kind {
	case protocol.Support, protocol.Approve, protocol.Ready, protocol.Initiator:
		return Key{Kind: m.Kind, G: m.G, M: m.M}
	default:
		return Key{Kind: m.Kind, G: m.G, M: m.M, P: m.P, K: m.K}
	}
}

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

// keyLog holds one key's records, sorted oldest→newest (wrap-aware).
// seen is a sender bitmap standing in for the per-key sender map the log
// used to carry: senders are dense in [0, N) (the transports authenticate
// identities), so one bit per sender answers the duplicate test in O(1)
// with no hashing and no per-key map to allocate, walk, or garbage-collect
// — the per-arrival cost that dominated large-n runs (DESIGN.md §5).
//
// A keyLog can sit in the map with no records: a Handle query on a key
// nobody recorded installs one, so later queries through that handle skip
// the map. It joins the iteration order on its first record and leaves
// it, and the map, when DecayOlderThan, RemoveMatching or Clear drops it;
// dropped then tells every Handle still pointing at it to resolve again.
type keyLog struct {
	key      Key
	recs     []rec
	seen     [seenWords]uint64
	seenOver []uint64 // bits for senders ≥ 64·seenWords
	dropped  bool
}

// hasSender reports whether sender holds a record (bitmap test).
func (kl *keyLog) hasSender(sender protocol.NodeID) bool {
	w := uint(sender) >> 6
	if w < seenWords {
		return kl.seen[w]&(1<<(uint(sender)&63)) != 0
	}
	w -= seenWords
	return int(w) < len(kl.seenOver) && kl.seenOver[w]&(1<<(uint(sender)&63)) != 0
}

// setSender marks sender as recorded, growing the overflow as needed.
func (kl *keyLog) setSender(sender protocol.NodeID) {
	w := uint(sender) >> 6
	if w < seenWords {
		kl.seen[w] |= 1 << (uint(sender) & 63)
		return
	}
	w -= seenWords
	for int(w) >= len(kl.seenOver) {
		kl.seenOver = append(kl.seenOver, 0)
	}
	kl.seenOver[w] |= 1 << (uint(sender) & 63)
}

// clearSender removes sender from the bitmap.
func (kl *keyLog) clearSender(sender protocol.NodeID) {
	w := uint(sender) >> 6
	if w < seenWords {
		kl.seen[w] &^= 1 << (uint(sender) & 63)
		return
	}
	w -= seenWords
	if int(w) < len(kl.seenOver) {
		kl.seenOver[w] &^= 1 << (uint(sender) & 63)
	}
}

// Log stores reception records. The zero value is not usable; use New.
type Log struct {
	wrap simtime.Duration
	recs map[Key]*keyLog
	// order lists the keys holding records in first-recording order,
	// making Keys and ForEachKey deterministic.
	order []*keyLog
	total int
}

// Handle is a cached resolution of one key, letting a caller that queries
// the same key repeatedly (the fixed-point evaluators) skip the hash of
// the full Key struct on every operation. It stays resolved until the
// Log drops its key. A Handle belongs to the Log that the caller uses it
// with; the value from NewHandle is valid and resolves lazily.
type Handle struct {
	key  Key
	kl   *keyLog
	hint int
}

// NewHandle returns an unresolved handle for key.
func (l *Log) NewHandle(key Key) Handle { return Handle{key: key} }

// NewHandleSized is NewHandle with a capacity hint: when the key's first
// record arrives through this handle, its record slice is presized for
// hint senders, sparing the quorum-sized keys (echo waves collect ~n
// records each) the append-growth copies.
func (l *Log) NewHandleSized(key Key, hint int) Handle {
	return Handle{key: key, hint: hint}
}

// resolve returns the handle's keyLog, installing an empty one when the
// key has none, so the map is probed only on a handle's first use and
// after the Log dropped its key.
func (l *Log) resolve(h *Handle) *keyLog {
	if h.kl != nil && !h.kl.dropped {
		return h.kl
	}
	h.kl = l.install(h.key)
	return h.kl
}

// install returns key's keyLog, adding an empty one if it has none.
func (l *Log) install(key Key) *keyLog {
	kl, ok := l.recs[key]
	if !ok {
		kl = &keyLog{key: key}
		l.recs[key] = kl
	}
	return kl
}

// RecordVia is Record through a cached handle.
func (l *Log) RecordVia(h *Handle, sender protocol.NodeID, now simtime.Local) {
	l.record(l.resolve(h), h.hint, sender, now)
}

// CountWithinVia is CountWithin through a cached handle.
func (l *Log) CountWithinVia(h *Handle, width simtime.Duration, now simtime.Local) int {
	kl := l.resolve(h)
	return kl.firstFuture(now, l.wrap) - kl.firstWithin(width, now, l.wrap)
}

// LenVia returns how many records the handle's key holds, in O(1). It is
// the incremental support counter of the threshold fast paths: bumped on
// insert, adjusted when decay closes the window, and always ≥ any windowed
// count of the key (window queries only ever exclude records), so
// LenVia < c proves CountWithinVia/KthNewest would miss a threshold of c
// without running the binary searches.
func (l *Log) LenVia(h *Handle) int {
	return len(l.resolve(h).recs)
}

// LenOf is LenVia by key.
func (l *Log) LenOf(key Key) int {
	if kl, ok := l.recs[key]; ok {
		return len(kl.recs)
	}
	return 0
}

// HasVia is Has through a cached handle.
func (l *Log) HasVia(h *Handle, sender protocol.NodeID) bool {
	return l.resolve(h).hasSender(sender)
}

// New returns an empty log whose window arithmetic honors the given
// local-clock wrap modulus (0 disables wrapping).
func New(wrap simtime.Duration) *Log {
	return &Log{wrap: wrap, recs: make(map[Key]*keyLog)}
}

// Record notes that sender's message for key was received at local time
// now. Repeated messages from the same sender keep only the latest
// reception ("multiple messages sent by an individual node are ignored").
func (l *Log) Record(key Key, sender protocol.NodeID, now simtime.Local) {
	l.record(l.install(key), 0, sender, now)
}

// record inserts (sender, now) into kl, replacing the sender's previous
// record if any. Senders must be non-negative (IDs are dense in [0, N) and
// the transports authenticate them); a negative sender is dropped. A key's
// first record allocates its slice, presized for hint senders, and enters
// it into the iteration order.
func (l *Log) record(kl *keyLog, hint int, sender protocol.NodeID, now simtime.Local) {
	if sender < 0 {
		return
	}
	if len(kl.recs) == 0 {
		if hint > 0 {
			kl.recs = make([]rec, 0, hint)
		}
		l.order = append(l.order, kl)
	}
	if kl.hasSender(sender) {
		// Duplicate: "multiple messages sent by an individual node are
		// ignored" — only the latest reception is kept. Duplicates cannot
		// occur from correct nodes (sends are suppressed per kind), so the
		// linear scan is off the hot path.
		kl.removeRec(sender)
		l.total--
	}
	kl.setSender(sender)
	l.total++
	// Insert in sorted position. Records arrive in (nearly) nondecreasing
	// local time, so the scan from the newest end is O(1) amortized.
	i := len(kl.recs)
	kl.recs = append(kl.recs, rec{})
	for i > 0 && simtime.WrapSub(kl.recs[i-1].at, now, l.wrap) > 0 {
		kl.recs[i] = kl.recs[i-1]
		i--
	}
	kl.recs[i] = rec{at: now, sender: sender}
}

// removeRec deletes sender's record from the slice.
func (kl *keyLog) removeRec(sender protocol.NodeID) {
	for i := len(kl.recs) - 1; i >= 0; i-- {
		if kl.recs[i].sender == sender {
			copy(kl.recs[i:], kl.recs[i+1:])
			kl.recs = kl.recs[:len(kl.recs)-1]
			return
		}
	}
}

// InjectRaw inserts an arbitrary record, bypassing invariants. It exists
// solely for the transient-fault injector, which fills logs with spurious
// residue (including future timestamps).
func (l *Log) InjectRaw(key Key, sender protocol.NodeID, at simtime.Local) {
	l.Record(key, sender, at)
}

// Has reports whether a record from sender exists for key.
func (l *Log) Has(key Key, sender protocol.NodeID) bool {
	kl, ok := l.recs[key]
	if !ok {
		return false
	}
	return kl.hasSender(sender)
}

// firstWithin returns the index of the first record with age ≤ width at
// local time now. Ages are nonincreasing along the sorted slice, so the
// predicate is monotone and a binary search applies.
func (kl *keyLog) firstWithin(width simtime.Duration, now simtime.Local, wrap simtime.Duration) int {
	lo, hi := 0, len(kl.recs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if simtime.WrapSub(now, kl.recs[mid].at, wrap) <= width {
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
func (kl *keyLog) firstFuture(now simtime.Local, wrap simtime.Duration) int {
	return kl.firstWithin(-1, now, wrap)
}

// CountWithin returns the number of distinct senders whose latest record
// for key lies in the window [now−width, now]. Future-stamped records are
// not counted. Cost: O(log s), allocation-free.
func (l *Log) CountWithin(key Key, width simtime.Duration, now simtime.Local) int {
	kl, ok := l.recs[key]
	if !ok {
		return 0
	}
	return kl.firstFuture(now, l.wrap) - kl.firstWithin(width, now, l.wrap)
}

// CountAll returns the number of distinct senders recorded for key with a
// non-future timestamp, regardless of age (Block N of Initiator-Accept is
// untimed; staleness is handled by decay).
func (l *Log) CountAll(key Key, now simtime.Local) int {
	kl, ok := l.recs[key]
	if !ok {
		return 0
	}
	return kl.firstFuture(now, l.wrap)
}

// KthNewest returns the reception time of the k-th most recent distinct
// sender for key (k ≥ 1), ignoring future-stamped records. The second
// result is false when fewer than k distinct senders are recorded.
//
// It drives the shortest-interval condition of Line L1: the minimal α such
// that [now−α, now] contains ≥ c distinct senders is now − KthNewest(c).
// Cost: O(log s), allocation-free.
func (l *Log) KthNewest(key Key, k int, now simtime.Local) (simtime.Local, bool) {
	if k <= 0 {
		return 0, false
	}
	kl, ok := l.recs[key]
	if !ok {
		return 0, false
	}
	j := kl.firstFuture(now, l.wrap)
	if j < k {
		return 0, false
	}
	return kl.recs[j-k].at, true
}

// KthNewestVia is KthNewest through a cached handle.
func (l *Log) KthNewestVia(h *Handle, k int, now simtime.Local) (simtime.Local, bool) {
	if k <= 0 {
		return 0, false
	}
	kl := l.resolve(h)
	j := kl.firstFuture(now, l.wrap)
	if j < k {
		return 0, false
	}
	return kl.recs[j-k].at, true
}

// Senders returns the distinct senders recorded for key, oldest reception
// first (deterministic order).
func (l *Log) Senders(key Key) []protocol.NodeID {
	kl, ok := l.recs[key]
	if !ok {
		return nil
	}
	out := make([]protocol.NodeID, len(kl.recs))
	for i, r := range kl.recs {
		out[i] = r.sender
	}
	return out
}

// DecayOlderThan removes every record whose age exceeds maxAge, as well as
// future-stamped records (clearly wrong per the paper). It implements the
// cleanup rules ("Remove any value or message that is older than Δrmv")
// and, as a side effect, restores exact sortedness after transient residue
// (all survivors fit one wrap/2 span relative to now). Every key left
// without records is dropped, including those only queried since the last
// sweep, so beyond the keys holding records the map keeps only those
// queried since the last sweep.
func (l *Log) DecayOlderThan(maxAge simtime.Duration, now simtime.Local) {
	removedKey := false
	for key, kl := range l.recs {
		kept := kl.recs[:0]
		for _, r := range kl.recs {
			age := simtime.WrapSub(now, r.at, l.wrap)
			if age < 0 || age > maxAge {
				kl.clearSender(r.sender)
				l.total--
				continue
			}
			kept = append(kept, r)
		}
		kl.recs = kept
		// Insertion sort by age: survivors are nearly sorted already, and
		// re-sorting here is what repairs any ordering damage done by
		// wrap-anomalous residue.
		for i := 1; i < len(kl.recs); i++ {
			r := kl.recs[i]
			j := i
			for j > 0 && simtime.WrapSub(now, kl.recs[j-1].at, l.wrap) < simtime.WrapSub(now, r.at, l.wrap) {
				kl.recs[j] = kl.recs[j-1]
				j--
			}
			kl.recs[j] = r
		}
		if len(kl.recs) == 0 {
			kl.dropped = true
			delete(l.recs, key)
			removedKey = true
		}
	}
	if removedKey {
		l.compactOrder()
	}
}

// RemoveMatching deletes all records whose key satisfies pred. Line N4
// uses it to "remove all (G,m) messages".
func (l *Log) RemoveMatching(pred func(Key) bool) {
	removed := false
	for key, kl := range l.recs {
		if pred(key) {
			l.total -= len(kl.recs)
			kl.dropped = true
			delete(l.recs, key)
			removed = true
		}
	}
	if removed {
		l.compactOrder()
	}
}

// compactOrder drops dropped keys from the iteration order.
func (l *Log) compactOrder() {
	kept := l.order[:0]
	for _, kl := range l.order {
		if !kl.dropped {
			kept = append(kept, kl)
		}
	}
	clear(l.order[len(kept):])
	l.order = kept
}

// Keys returns the keys currently holding at least one record, in
// first-recording order.
func (l *Log) Keys() []Key {
	out := make([]Key, len(l.order))
	for i, kl := range l.order {
		out[i] = kl.key
	}
	return out
}

// ForEachKey calls fn for every key currently holding at least one record,
// in first-recording order, without allocating. fn must not mutate the
// log.
func (l *Log) ForEachKey(fn func(Key)) {
	for _, kl := range l.order {
		fn(kl.key)
	}
}

// Len returns the total number of records across all keys.
func (l *Log) Len() int { return l.total }

// Clear removes everything (used when an instance resets).
func (l *Log) Clear() {
	for _, kl := range l.recs {
		kl.dropped = true
	}
	clear(l.recs)
	clear(l.order)
	l.order = l.order[:0]
	l.total = 0
}
