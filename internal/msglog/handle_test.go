package msglog

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ssbyz/internal/protocol"
	"ssbyz/internal/simtime"
)

// modelLog is the naive model of a Log: each key's latest reception per
// sender, and the keys holding records in first-recording order.
type modelLog struct {
	recs  map[Key]map[protocol.NodeID]simtime.Local
	order []Key
}

func (m *modelLog) record(key Key, sender protocol.NodeID, at simtime.Local) {
	if sender < 0 {
		return
	}
	if len(m.recs[key]) == 0 {
		m.recs[key] = make(map[protocol.NodeID]simtime.Local)
		m.order = append(m.order, key)
	}
	m.recs[key][sender] = at
}

// drop removes every key matching pred, or left without records.
func (m *modelLog) drop(pred func(Key) bool) {
	kept := m.order[:0]
	for _, k := range m.order {
		if pred(k) || len(m.recs[k]) == 0 {
			delete(m.recs, k)
			continue
		}
		kept = append(kept, k)
	}
	m.order = kept
}

// ages returns key's non-future record ages at now, youngest first.
func (m *modelLog) ages(key Key, now simtime.Local) []simtime.Duration {
	var out []simtime.Duration
	for _, at := range m.recs[key] {
		if age := simtime.WrapSub(now, at, 0); age >= 0 {
			out = append(out, age)
		}
	}
	slices.Sort(out)
	return out
}

// TestHandlesAcrossDeletions drives a Log and the naive model with one
// seeded schedule of Record, RecordVia and InjectRaw (future stamps
// included) against DecayOlderThan, RemoveMatching and Clear, while the
// same Handles are held across every deletion. After every step each
// ...Via query on each handle equals its by-key twin and the model, and
// Keys and ForEachKey equal the model's first-recording order with no
// empty key — even though the queries install empty keys in the map.
func TestHandlesAcrossDeletions(t *testing.T) {
	var keys []Key
	for _, kind := range []protocol.MsgKind{protocol.Support, protocol.Echo} {
		for _, m := range []protocol.Value{"a", "b", "c"} {
			keys = append(keys, Key{Kind: kind, G: 1, M: m})
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			l := New(0)
			model := &modelLog{recs: make(map[Key]map[protocol.NodeID]simtime.Local)}
			// Two handles per key, one presized, held for the whole run.
			var hs []Handle
			for _, k := range keys {
				hs = append(hs, l.NewHandle(k), l.NewHandleSized(k, 4))
			}
			now := simtime.Local(1000)
			for step := range 600 {
				now += simtime.Local(rng.Intn(20))
				sender := protocol.NodeID(rng.Intn(70)) // past seenWords' first word
				switch op := rng.Intn(20); {
				case op < 6:
					k := keys[rng.Intn(len(keys))]
					at := now - simtime.Local(rng.Intn(300))
					if op == 0 {
						sender = -1
					}
					l.Record(k, sender, at)
					model.record(k, sender, at)
				case op < 12:
					h := &hs[rng.Intn(len(hs))]
					at := now - simtime.Local(rng.Intn(300))
					l.RecordVia(h, sender, at)
					model.record(h.key, sender, at)
				case op < 14:
					k := keys[rng.Intn(len(keys))]
					at := now + simtime.Local(rng.Intn(200)) - 100 // may lie in the future
					l.InjectRaw(k, sender, at)
					model.record(k, sender, at)
				case op < 17:
					maxAge := simtime.Duration(rng.Intn(400))
					l.DecayOlderThan(maxAge, now)
					for _, recs := range model.recs {
						for s, at := range recs {
							if age := simtime.WrapSub(now, at, 0); age < 0 || age > maxAge {
								delete(recs, s)
							}
						}
					}
					model.drop(func(Key) bool { return false })
					// The sweep also drops the keys queries installed
					// empty, so the map stays bounded.
					if len(l.recs) != len(model.order) {
						t.Fatalf("step %d: %d keys in the map after decay, %d hold records", step, len(l.recs), len(model.order))
					}
				case op < 19:
					m := keys[rng.Intn(len(keys))].M
					l.RemoveMatching(func(k Key) bool { return k.M == m })
					model.drop(func(k Key) bool { return k.M == m })
				default:
					l.Clear()
					model.drop(func(Key) bool { return true })
				}
				checkAgainstModel(t, step, l, model, hs, now, rng)
			}
		})
	}
}

func checkAgainstModel(t *testing.T, step int, l *Log, model *modelLog, hs []Handle, now simtime.Local, rng *rand.Rand) {
	t.Helper()
	total := 0
	for _, recs := range model.recs {
		total += len(recs)
	}
	if got := l.Len(); got != total {
		t.Fatalf("step %d: Len = %d, model %d", step, got, total)
	}
	for i := range hs {
		h := &hs[i]
		k := h.key
		ages := model.ages(k, now)
		if got, by, want := l.LenVia(h), l.LenOf(k), len(model.recs[k]); got != want || by != want {
			t.Fatalf("step %d, %v: LenVia = %d, LenOf = %d, model %d", step, k, got, by, want)
		}
		width := simtime.Duration(rng.Intn(300))
		want, _ := slices.BinarySearch(ages, width+1)
		if got, by := l.CountWithinVia(h, width, now), l.CountWithin(k, width, now); got != want || by != want {
			t.Fatalf("step %d, %v: CountWithinVia(%d) = %d, CountWithin = %d, model %d", step, k, width, got, by, want)
		}
		sender := protocol.NodeID(rng.Intn(70))
		_, want2 := model.recs[k][sender]
		if got, by := l.HasVia(h, sender), l.Has(k, sender); got != want2 || by != want2 {
			t.Fatalf("step %d, %v: HasVia(%d) = %v, Has = %v, model %v", step, k, sender, got, by, want2)
		}
		kth := 1 + rng.Intn(4)
		gotAt, gotOK := l.KthNewestVia(h, kth, now)
		byAt, byOK := l.KthNewest(k, kth, now)
		wantOK := len(ages) >= kth
		var wantAt simtime.Local
		if wantOK {
			wantAt = now - simtime.Local(ages[kth-1])
		}
		if gotOK != wantOK || byOK != wantOK || (wantOK && (gotAt != wantAt || byAt != wantAt)) {
			t.Fatalf("step %d, %v: KthNewestVia(%d) = (%d, %v), KthNewest = (%d, %v), model (%d, %v)",
				step, k, kth, gotAt, gotOK, byAt, byOK, wantAt, wantOK)
		}
	}
	if got := l.Keys(); !slices.Equal(got, model.order) {
		t.Fatalf("step %d: Keys = %v, model %v", step, got, model.order)
	}
	var walked []Key
	l.ForEachKey(func(k Key) { walked = append(walked, k) })
	if !slices.Equal(walked, model.order) {
		t.Fatalf("step %d: ForEachKey = %v, model %v", step, walked, model.order)
	}
}

// TestViaQueriesOnEmptyKeyAllocateNothing: the four ...Via queries on a
// handle whose key holds no records allocate nothing, beyond the one
// empty key the handle's first use installs (AllocsPerRun's warm-up call).
func TestViaQueriesOnEmptyKeyAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	l := New(0)
	l.Record(Key{Kind: protocol.Echo, G: 1, M: "other"}, 2, 5)
	h := l.NewHandleSized(supKey, 8)
	for _, q := range []struct {
		name string
		run  func()
	}{
		{"LenVia", func() { l.LenVia(&h) }},
		{"CountWithinVia", func() { l.CountWithinVia(&h, 10, 20) }},
		{"HasVia", func() { l.HasVia(&h, 2) }},
		{"KthNewestVia", func() { l.KthNewestVia(&h, 1, 20) }},
	} {
		if allocs := testing.AllocsPerRun(100, q.run); allocs != 0 {
			t.Errorf("%s on an empty key: %.1f allocs per call, want 0", q.name, allocs)
		}
	}
}
