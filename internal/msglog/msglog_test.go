package msglog

import (
	"cmp"
	"slices"
	"testing"
	"testing/quick"

	"ssbyz/internal/protocol"
	"ssbyz/internal/simtime"
)

// rec records through a window with no presizing, drawing stamps from a
// counter of its own.
func (w *Window) rec(sender protocol.NodeID, at simtime.Local, wrap simtime.Duration) {
	var seq uint64
	w.Record(sender, at, 0, wrap, &seq)
}

// checkNewest asserts the invariant Record's in-order test relies on:
// newest is the last record's time whenever the window holds one.
func checkNewest(t *testing.T, step int, w *Window) {
	t.Helper()
	if n := len(w.recs); n > 0 && w.newest != w.recs[n-1].at {
		t.Fatalf("step %d: newest = %d, last record at %d", step, w.newest, w.recs[n-1].at)
	}
}

func TestRecordKeepsLatestPerSender(t *testing.T) {
	var w Window
	w.rec(1, 100, 0)
	w.rec(1, 200, 0) // same sender: replaces
	w.rec(2, 150, 0)
	if got := w.CountWithin(10, 205, 0); got != 1 {
		t.Errorf("CountWithin(10)@205 = %d, want 1 (only sender 1's latest)", got)
	}
	if got := w.CountWithin(100, 205, 0); got != 2 {
		t.Errorf("CountWithin(100)@205 = %d, want 2", got)
	}
	if got := w.Len(); got != 2 {
		t.Errorf("Len = %d, want 2", got)
	}
	checkNewest(t, 0, &w)
}

func TestNegativeSenderDropped(t *testing.T) {
	var w Window
	var seq uint64
	w.Record(-1, 10, 4, 0, &seq)
	if w.Len() != 0 || seq != 0 {
		t.Errorf("negative sender recorded: Len = %d, seq = %d", w.Len(), seq)
	}
}

func TestCountWithinIgnoresFuture(t *testing.T) {
	var w Window
	w.rec(1, 500, 0) // future relative to now=400
	if got := w.CountWithin(1000, 400, 0); got != 0 {
		t.Errorf("future record counted: %d", got)
	}
}

func TestHas(t *testing.T) {
	var w Window
	if w.Has(1) {
		t.Error("Has on an empty window")
	}
	w.rec(1, 10, 0)
	w.rec(300, 10, 0) // past the inline bitmap
	if !w.Has(1) || !w.Has(300) {
		t.Error("Has missed a recorded sender")
	}
	if w.Has(2) || w.Has(301) {
		t.Error("Has found a never-recorded sender")
	}
}

func TestKthNewest(t *testing.T) {
	var w Window
	w.rec(1, 100, 0)
	w.rec(2, 300, 0)
	w.rec(3, 200, 0)
	now := simtime.Local(400)
	cases := []struct {
		k      int
		want   simtime.Local
		wantOK bool
	}{
		{1, 300, true},
		{2, 200, true},
		{3, 100, true},
		{4, 0, false},
		{0, 0, false},
		{-1, 0, false},
	}
	for _, tc := range cases {
		got, ok := w.KthNewest(tc.k, now, 0)
		if ok != tc.wantOK || (ok && got != tc.want) {
			t.Errorf("KthNewest(%d) = (%d,%v), want (%d,%v)", tc.k, got, ok, tc.want, tc.wantOK)
		}
	}
}

// TestKthNewestWindowSemantics: now − KthNewest(c) is the minimal α such
// that [now−α, now] holds ≥ c distinct senders — the Block L1 condition.
func TestKthNewestWindowSemantics(t *testing.T) {
	var w Window
	for i, at := range []simtime.Local{50, 80, 90, 95} {
		w.rec(protocol.NodeID(i), at, 0)
	}
	now := simtime.Local(100)
	tc, ok := w.KthNewest(3, now, 0)
	if !ok || tc != 80 {
		t.Fatalf("KthNewest(3) = (%d,%v), want (80,true)", tc, ok)
	}
	alpha := now.Sub(tc)
	if got := w.CountWithin(alpha, now, 0); got < 3 {
		t.Errorf("window [now−α, now] holds %d senders, want ≥ 3", got)
	}
	if got := w.CountWithin(alpha-1, now, 0); got >= 3 {
		t.Errorf("α is not minimal: window α−1 still holds %d", got)
	}
}

func TestDecayOlderThan(t *testing.T) {
	var w Window
	w.rec(1, 100, 0)
	w.rec(2, 500, 0)
	w.rec(3, 2000, 0) // future at now=1000 → removed too
	w.Decay(600, 1000, 0)
	if w.Has(1) {
		t.Error("record older than maxAge survived decay")
	}
	if !w.Has(2) {
		t.Error("fresh record removed by decay")
	}
	if w.Has(3) {
		t.Error("future-stamped record survived decay")
	}
	checkNewest(t, 0, &w)
	if w.newest != 500 {
		t.Errorf("newest after decay = %d, want 500", w.newest)
	}
}

// TestStampOnFirstRecord: a window draws its owner's next stamp when it
// goes from empty to non-empty, and only then.
func TestStampOnFirstRecord(t *testing.T) {
	var a, b Window
	var seq uint64
	a.Record(1, 10, 0, 0, &seq)
	b.Record(1, 11, 0, 0, &seq)
	a.Record(2, 12, 0, 0, &seq) // not a first record
	a.Record(1, 13, 0, 0, &seq) // a duplicate replace keeps the stamp
	if a.stamp != 1 || b.stamp != 2 || seq != 2 {
		t.Fatalf("stamps a=%d b=%d seq=%d, want 1, 2, 2", a.stamp, b.stamp, seq)
	}
	a.Decay(0, 13, 0) // sender 2's record decays, sender 1's survives
	if a.Len() != 1 || a.stamp != 1 {
		t.Fatalf("after a partial decay: Len %d stamp %d, want 1, 1", a.Len(), a.stamp)
	}
	a.Decay(0, 100, 0)
	a.Record(3, 100, 0, 0, &seq)
	if a.stamp != 3 {
		t.Errorf("a window emptied by decay restamps to %d, want 3", a.stamp)
	}
	b.Clear()
	b.Record(3, 100, 0, 0, &seq)
	if b.stamp != 4 {
		t.Errorf("a cleared window restamps to %d, want 4", b.stamp)
	}
	var empty Window
	if first, ok := FirstStamp([]*Window{&b, &empty, &a}); !ok || first != 3 {
		t.Errorf("FirstStamp = (%d, %v), want (3, true)", first, ok)
	}
	if _, ok := FirstStamp([]*Window{&empty}); ok {
		t.Error("FirstStamp found a record in an empty window")
	}
}

func TestClear(t *testing.T) {
	var w Window
	var seq uint64
	w.Record(1, 10, 8, 0, &seq)
	w.Record(300, 20, 8, 0, &seq)
	w.Clear()
	if w.Len() != 0 || w.Has(1) || w.Has(300) || w.CountWithin(100, 20, 0) != 0 {
		t.Error("Clear left records behind")
	}
	if cap(w.recs) != 8 {
		t.Errorf("Clear dropped the capacity: %d, want 8", cap(w.recs))
	}
}

func TestWrappedWindowAcrossZero(t *testing.T) {
	const wrap = 1000
	var w Window
	w.rec(1, 990, wrap)     // before the wrap
	now := simtime.Local(5) // after the wrap: age 15
	if got := w.CountWithin(20, now, wrap); got != 1 {
		t.Errorf("wrapped record not counted: %d", got)
	}
	if got := w.CountWithin(10, now, wrap); got != 0 {
		t.Errorf("wrapped record counted outside window: %d", got)
	}
	at, ok := w.KthNewest(1, now, wrap)
	if !ok || at != 990 {
		t.Errorf("wrapped KthNewest = (%d,%v), want (990,true)", at, ok)
	}
}

// TestCountNeverExceedsDistinctSenders is the key quorum-safety property:
// no window query may ever count one sender twice.
func TestCountNeverExceedsDistinctSenders(t *testing.T) {
	f := func(events []struct {
		Sender uint8
		At     uint16
	}, width uint16, nowRaw uint16) bool {
		var w Window
		distinct := map[protocol.NodeID]bool{}
		for _, e := range events {
			w.rec(protocol.NodeID(e.Sender), simtime.Local(e.At), 0)
			distinct[protocol.NodeID(e.Sender)] = true
		}
		return w.CountWithin(simtime.Duration(width), simtime.Local(nowRaw), 0) <= len(distinct)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestWrappedKthNewestAcrossZero: shortest-interval queries stay exact
// when the window of interest straddles the wrap point and includes
// several senders on both sides of it.
func TestWrappedKthNewestAcrossZero(t *testing.T) {
	const wrap = 1000
	var w Window
	w.rec(1, 970, wrap) // oldest, before the wrap
	w.rec(2, 990, wrap) // before the wrap
	w.rec(3, 10, wrap)  // after the wrap
	w.rec(4, 20, wrap)  // newest
	checkNewest(t, 0, &w)
	now := simtime.Local(30)
	wants := []struct {
		k    int
		want simtime.Local
	}{{1, 20}, {2, 10}, {3, 990}, {4, 970}}
	for _, tc := range wants {
		got, ok := w.KthNewest(tc.k, now, wrap)
		if !ok || got != tc.want {
			t.Errorf("KthNewest(%d) = (%d,%v), want (%d,true)", tc.k, got, ok, tc.want)
		}
	}
	if _, ok := w.KthNewest(5, now, wrap); ok {
		t.Error("KthNewest(5) found a fifth sender")
	}
	if got := w.CountWithin(45, now, wrap); got != 3 {
		t.Errorf("CountWithin(45) across the wrap = %d, want 3", got)
	}
}

// TestWrappedFutureResidueIgnored: transient residue stamped "ahead" of
// the local clock (in wrap terms) must be invisible to every window query
// and to KthNewest, exactly as with a non-wrapping clock.
func TestWrappedFutureResidueIgnored(t *testing.T) {
	const wrap = 1 << 20
	var w Window
	now := simtime.Local(5000)
	w.rec(1, 4900, wrap)                       // legitimate
	w.rec(2, now+200, wrap)                    // near future
	w.rec(3, simtime.Local(wrap/2+4000), wrap) // far side of the circle
	if got := w.CountWithin(wrap/2-1, now, wrap); got != 1 {
		t.Errorf("CountWithin counted future residue: %d, want 1", got)
	}
	if at, ok := w.KthNewest(1, now, wrap); !ok || at != 4900 {
		t.Errorf("KthNewest(1) = (%d,%v), want (4900,true)", at, ok)
	}
	if _, ok := w.KthNewest(2, now, wrap); ok {
		t.Error("KthNewest(2) reached into future residue")
	}
	// Decay removes the clearly-wrong records and keeps the fresh one.
	w.Decay(1000, now, wrap)
	if w.Has(2) || w.Has(3) {
		t.Error("future residue survived decay")
	}
	if !w.Has(1) || w.Len() != 1 {
		t.Error("legitimate record removed by decay")
	}
	checkNewest(t, 0, &w)
}

// TestDecayWrappedAgedRecords: decay measures age through the wrap, so a
// record written just before the wrap point is still "recent" right after
// it, while genuinely old records go.
func TestDecayWrappedAgedRecords(t *testing.T) {
	const wrap = 1000
	var w Window
	w.rec(1, 600, wrap) // age 405 at now=5 → decayed
	w.rec(2, 980, wrap) // age 25 at now=5 → kept
	w.Decay(100, 5, wrap)
	if w.Has(1) {
		t.Error("aged wrapped record survived decay")
	}
	if !w.Has(2) {
		t.Error("recent wrapped record removed by decay")
	}
	if got := w.Len(); got != 1 {
		t.Errorf("Len after decay = %d, want 1", got)
	}
}

// TestRecordReplaceOutOfOrder: a sender's latest reception wins even when
// receptions arrive out of timestamp order (injected residue), and the
// replaced record never resurfaces in queries.
func TestRecordReplaceOutOfOrder(t *testing.T) {
	var w Window
	w.rec(1, 500, 0)
	w.rec(2, 300, 0)
	w.rec(1, 100, 0) // same sender, earlier stamp: still replaces
	if got := w.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	checkNewest(t, 0, &w)
	if w.newest != 300 {
		t.Errorf("newest after replacing the newest record = %d, want 300", w.newest)
	}
	if got := w.CountWithin(1000, 600, 0); got != 2 {
		t.Errorf("CountWithin = %d, want 2", got)
	}
	if at, ok := w.KthNewest(2, 600, 0); !ok || at != 100 {
		t.Errorf("KthNewest(2) = (%d,%v), want (100,true)", at, ok)
	}
	if got := w.CountWithin(150, 600, 0); got != 0 {
		t.Errorf("replaced record at 500 still visible: count %d", got)
	}
}

// TestLogKeyed: the keyed Log keeps one window per key.
func TestLogKeyed(t *testing.T) {
	sup := Key{Kind: protocol.Support, G: 0, M: "v"}
	echo := Key{Kind: protocol.Echo, G: 0, M: "v", P: 2, K: 1}
	l := New(0)
	l.Record(sup, 1, 100)
	l.Record(sup, 2, 300)
	l.Record(echo, 1, 200)
	if got := l.CountWithin(sup, 1000, 400); got != 2 {
		t.Errorf("CountWithin(support) = %d, want 2", got)
	}
	if got := l.CountWithin(echo, 1000, 400); got != 1 {
		t.Errorf("CountWithin(echo) = %d, want 1", got)
	}
	if got := l.CountWithin(Key{Kind: protocol.Ready}, 1000, 400); got != 0 {
		t.Errorf("CountWithin(never recorded) = %d, want 0", got)
	}
	if at, ok := l.KthNewest(sup, 2, 400); !ok || at != 100 {
		t.Errorf("KthNewest(support, 2) = (%d,%v), want (100,true)", at, ok)
	}
	if _, ok := l.KthNewest(Key{Kind: protocol.Ready}, 1, 400); ok {
		t.Error("KthNewest found a record under a never-recorded key")
	}
}

// TestCountAll: Len counts every record whatever its age, and a window as
// wide as the oldest record's age counts them all.
func TestCountAll(t *testing.T) {
	var w Window
	w.rec(1, 10, 0)
	w.rec(2, 9000, 0)
	if got := w.Len(); got != 2 {
		t.Errorf("Len = %d, want 2 regardless of age", got)
	}
	if got := w.CountWithin(9990, 10000, 0); got != 2 {
		t.Errorf("CountWithin(9990)@10000 = %d, want 2", got)
	}
	if got := w.CountWithin(1000, 10000, 0); got != 1 {
		t.Errorf("CountWithin(1000)@10000 = %d, want 1", got)
	}
}

// TestDecayRemovesEmptyKeys: a window that decay empties holds nothing
// and drops out of its owner's first-record order.
func TestDecayRemovesEmptyKeys(t *testing.T) {
	var w Window
	var seq uint64
	w.Record(1, 10, 0, 0, &seq)
	w.Decay(5, 1000, 0)
	if w.Len() != 0 || w.Has(1) {
		t.Errorf("decayed record survived: Len %d, Has(1) %v", w.Len(), w.Has(1))
	}
	if _, ok := FirstStamp([]*Window{&w}); ok {
		t.Error("a window emptied by decay still ranks in its owner's order")
	}
}

// TestRemoveMatching: Line N4's "remove all (G,m) messages" clears value
// m's windows; another value's window keeps its records and its stamp.
func TestRemoveMatching(t *testing.T) {
	var a, b Window
	var seq uint64
	a.Record(1, 10, 0, 0, &seq)
	b.Record(1, 10, 0, 0, &seq)
	a.Clear()
	if a.Has(1) || a.Len() != 0 {
		t.Error("the matching value's window survived Clear")
	}
	if !b.Has(1) || b.Len() != 1 || b.stamp != 2 {
		t.Errorf("the other value's window changed: Has(1) %v, Len %d, stamp %d", b.Has(1), b.Len(), b.stamp)
	}
}

// TestSendersAndKeys: a window holds exactly the senders recorded into it,
// and the keyed Log keeps one window per key.
func TestSendersAndKeys(t *testing.T) {
	sup := Key{Kind: protocol.Support, G: 0, M: "v"}
	l := New(0)
	l.Record(sup, 3, 10)
	l.Record(sup, 7, 20)
	if got := len(l.recs); got != 1 {
		t.Fatalf("Log holds %d windows, want 1", got)
	}
	w := l.recs[sup]
	if w.Len() != 2 {
		t.Errorf("Len = %d, want 2", w.Len())
	}
	for s := protocol.NodeID(0); s < 300; s++ {
		if want := s == 3 || s == 7; w.Has(s) != want {
			t.Errorf("Has(%d) = %v, want %v", s, w.Has(s), want)
		}
	}
}

// TestKeysDeterministicOrder: an owner that lists its non-empty windows by
// stamp lists them in first-recording order (its maps would be random),
// which the fixed-point evaluators rely on for reproducible message
// emission order. A later record keeps a window's place; a cleared window
// leaves the order and rejoins it last.
func TestKeysDeterministicOrder(t *testing.T) {
	keys := []Key{
		{Kind: protocol.Support, G: 0, M: "c"},
		{Kind: protocol.Support, G: 0, M: "a"},
		{Kind: protocol.Approve, G: 0, M: "b"},
	}
	var seq uint64
	wins := make(map[Key]*Window)
	for i, k := range keys {
		wins[k] = &Window{}
		wins[k].Record(protocol.NodeID(i), simtime.Local(10*i), 0, 0, &seq)
	}
	ordered := func() []Key {
		var ks []Key
		for k, w := range wins {
			if _, ok := FirstStamp([]*Window{w}); ok {
				ks = append(ks, k)
			}
		}
		slices.SortFunc(ks, func(x, y Key) int { return cmp.Compare(wins[x].stamp, wins[y].stamp) })
		return ks
	}
	wins[keys[0]].Record(5, 40, 0, 0, &seq)
	if got := ordered(); !slices.Equal(got, keys) {
		t.Fatalf("order = %v, want %v", got, keys)
	}
	wins[keys[0]].Clear()
	if got, want := ordered(), keys[1:]; !slices.Equal(got, want) {
		t.Fatalf("order after clearing c = %v, want %v", got, want)
	}
	wins[keys[0]].Record(1, 50, 0, 0, &seq)
	if got, want := ordered(), []Key{keys[1], keys[2], keys[0]}; !slices.Equal(got, want) {
		t.Fatalf("order after re-recording c = %v, want %v", got, want)
	}
}

// TestViaQueriesOnEmptyKeyAllocateNothing: the queries on an empty window,
// and the keyed Log's queries on a key it never recorded, allocate nothing.
func TestViaQueriesOnEmptyKeyAllocateNothing(t *testing.T) {
	sup := Key{Kind: protocol.Support, G: 0, M: "v"}
	l := New(0)
	l.Record(Key{Kind: protocol.Echo, G: 1, M: "other"}, 2, 5)
	var w Window
	for _, q := range []struct {
		name string
		run  func()
	}{
		{"Len", func() { w.Len() }},
		{"CountWithin", func() { w.CountWithin(10, 20, 0) }},
		{"Has", func() { w.Has(2) }},
		{"KthNewest", func() { w.KthNewest(1, 20, 0) }},
		{"Log.CountWithin", func() { l.CountWithin(sup, 10, 20) }},
		{"Log.KthNewest", func() { l.KthNewest(sup, 1, 20) }},
	} {
		if allocs := testing.AllocsPerRun(100, q.run); allocs != 0 {
			t.Errorf("%s on an empty key: %.1f allocs per call, want 0", q.name, allocs)
		}
	}
}

// refLog is the naive map-based reference model of a window: one latest
// record per sender, ages via WrapSub.
type refLog map[protocol.NodeID]simtime.Local

func (r refLog) countWithin(width simtime.Duration, now simtime.Local, wrap simtime.Duration) int {
	n := 0
	for _, at := range r {
		age := simtime.WrapSub(now, at, wrap)
		if age >= 0 && age <= width {
			n++
		}
	}
	return n
}

// TestDifferentialVsReference drives the sorted-slice window and the
// reference model with the same pseudo-random schedule of records (out of
// order and duplicate senders included), decays, clears and queries, and
// requires identical answers throughout, and the newest invariant after
// every operation. The schedule keeps live timestamps within wrap/2 of the
// query instant — the regime in which the window contracts exactness (the
// paper's wrap premise).
func TestDifferentialVsReference(t *testing.T) {
	const wrap = 1 << 16
	var w Window
	var seq uint64
	ref := refLog{}
	x := int64(42)
	next := func(mod int64) int64 {
		x = (x*6364136223846793005 + 1442695040888963407) & (1<<62 - 1)
		return x % mod
	}
	now := simtime.Local(0)
	for step := 0; step < 5000; step++ {
		now = simtime.WrapAdd(now, simtime.Duration(next(50)), wrap)
		switch next(20) {
		case 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11: // record, slightly jittered into the past
			sender := protocol.NodeID(next(40))
			if next(8) == 0 {
				sender += 300 // past the inline bitmap
			}
			at := simtime.WrapAdd(now, -simtime.Duration(next(2000)), wrap)
			w.Record(sender, at, int(next(3))*4, wrap, &seq)
			ref[sender] = at
		case 12, 13, 14: // window queries
			width := simtime.Duration(next(4000))
			if got, want := w.CountWithin(width, now, wrap), ref.countWithin(width, now, wrap); got != want {
				t.Fatalf("step %d: CountWithin(%d)@%d = %d, want %d", step, width, now, got, want)
			}
			sender := protocol.NodeID(next(40))
			if _, want := ref[sender]; w.Has(sender) != want {
				t.Fatalf("step %d: Has(%d) = %v, want %v", step, sender, !want, want)
			}
		case 15, 16: // k-th newest vs reference minimal window
			k := int(next(10)) + 1
			at, ok := w.KthNewest(k, now, wrap)
			nonFuture := ref.countWithin(1<<30, now, wrap)
			if ok != (nonFuture >= k) {
				t.Fatalf("step %d: KthNewest(%d) ok=%v with %d senders", step, k, ok, nonFuture)
			}
			if ok {
				alpha := simtime.WrapSub(now, at, wrap)
				if got := ref.countWithin(alpha, now, wrap); got < k {
					t.Fatalf("step %d: window α=%d holds %d < k=%d", step, alpha, got, k)
				}
				if alpha > 0 {
					if got := ref.countWithin(alpha-1, now, wrap); got >= k {
						t.Fatalf("step %d: α=%d not minimal (%d ≥ k=%d at α−1)", step, alpha, got, k)
					}
				}
			}
		case 17, 18: // decay
			maxAge := simtime.Duration(next(3000))
			w.Decay(maxAge, now, wrap)
			for sender, at := range ref {
				age := simtime.WrapSub(now, at, wrap)
				if age < 0 || age > maxAge {
					delete(ref, sender)
				}
			}
		case 19:
			if next(10) == 0 {
				w.Clear()
				clear(ref)
			}
		}
		if got := w.Len(); got != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", step, got, len(ref))
		}
		checkNewest(t, step, &w)
	}
}

// TestWindowMonotonicProperty: widening the window never lowers the count.
func TestWindowMonotonicProperty(t *testing.T) {
	f := func(events []struct {
		Sender uint8
		At     uint16
	}, w1, w2 uint16) bool {
		var w Window
		for _, e := range events {
			w.rec(protocol.NodeID(e.Sender), simtime.Local(e.At), 0)
		}
		lo, hi := simtime.Duration(w1), simtime.Duration(w2)
		if lo > hi {
			lo, hi = hi, lo
		}
		now := simtime.Local(1 << 15)
		return w.CountWithin(lo, now, 0) <= w.CountWithin(hi, now, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
