package nettrans

import (
	"math/rand"
	"testing"
	"time"

	"ssbyz/internal/clock"
	"ssbyz/internal/protocol"
	"ssbyz/internal/simtime"
	"ssbyz/internal/wire"
)

// replayD is the window's d in these tests, in ticks.
const replayD = 20

// TestReplayWindowCases pins the anti-replay window against the cases of
// RFC 4303 §3.4.3: numbers in order, an exact duplicate, a reorder inside
// the bitmap, a number left of the bitmap, and a jump ahead by more than
// the whole bitmap. All frames arrive at tick 0, so the self-stabilizing
// restart never fires here.
func TestReplayWindowCases(t *testing.T) {
	type step struct {
		num  uint64
		want replayVerdict
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"in order", []step{{0, replayFresh}, {1, replayFresh}, {2, replayFresh}, {3, replayFresh}}},
		{"exact duplicate", []step{{0, replayFresh}, {1, replayFresh}, {1, replayDup}, {0, replayDup}, {2, replayFresh}}},
		{"reorder inside the bitmap", []step{
			{10, replayFresh}, {3, replayFresh}, {replaySpan - 5, replayFresh},
			{7, replayFresh}, {3, replayDup}, {10, replayDup}, {replaySpan - 6, replayFresh},
		}},
		{"left of the bitmap", []step{
			{100, replayFresh}, {100 + replaySpan, replayFresh},
			{100, replayStale}, {99, replayStale}, {101, replayFresh}, {101, replayDup},
		}},
		{"jump beyond the bitmap", []step{
			{0, replayFresh}, {5, replayFresh},
			{5 + 3*replayWords*64, replayFresh},
			// Every word was cleared: numbers still inside the new bitmap
			// are fresh, the ones before it are stale.
			{5 + 3*replayWords*64 - 1, replayFresh},
			{5 + 3*replayWords*64 - (replaySpan - 1), replayFresh},
			{5 + 3*replayWords*64 - replaySpan, replayStale},
			{5, replayStale}, {0, replayStale},
			{5 + 3*replayWords*64, replayDup},
		}},
		{"word boundaries", []step{
			{63, replayFresh}, {64, replayFresh}, {127, replayFresh}, {128, replayFresh},
			{65, replayFresh}, {63, replayDup}, {64, replayDup}, {128, replayDup},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var w replayWindow
			for i, st := range tc.steps {
				if got := w.admit(st.num, 0, replayD); got != st.want {
					t.Fatalf("step %d: number %d judged %d, want %d", i, st.num, got, st.want)
				}
			}
		})
	}
}

// TestReplayWindowMatchesReference drives the window with random
// reorders, duplicates and jumps and compares every verdict with a set of
// every admitted number: inside the span the window must agree with the
// set exactly, and behind it every number is stale.
func TestReplayWindowMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var w replayWindow
	seen := map[uint64]bool{}
	var high uint64
	next := uint64(0)
	for i := 0; i < 200000; i++ {
		var num uint64
		switch r := rng.Intn(100); {
		case r < 70:
			num = next
			next++
		case r < 95 && next > 0:
			back := uint64(rng.Intn(replaySpan + 200))
			if back > next {
				back = next
			}
			num = next - back
		default:
			next += uint64(rng.Intn(3 * replayWords * 64))
			num = next
			next++
		}
		want := replayFresh
		switch {
		case len(seen) > 0 && num <= high && high-num >= replaySpan:
			want = replayStale
		case seen[num]:
			want = replayDup
		}
		if got := w.admit(num, 0, replayD); got != want {
			t.Fatalf("draw %d: number %d (high %d) judged %d, want %d", i, num, high, got, want)
		}
		if want == replayFresh {
			seen[num] = true
			if num > high {
				high = num
			}
		}
	}
}

// TestReplayWindowConverges is the self-stabilization claim of the
// window: from an arbitrary state — here the highest number near the top
// of the range, every bit set, and an advance just now — a sender that
// sends one frame per tick loses nothing from d ticks after the
// corruption on (the restart needs more than d ticks without an advance,
// so the first tick it can fire is d+1). The random cases draw the whole
// state at random, the advance tick included, and let the sender's
// counter restart at 0 or resume anywhere, inside the bitmap too.
func TestReplayWindowConverges(t *testing.T) {
	const at = 1000 // the corruption's tick
	worst := replayWindow{high: ^uint64(0) - 3, advanced: at}
	for i := range worst.bits {
		worst.bits[i] = ^uint64(0)
	}
	states := []replayWindow{worst}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		var w replayWindow
		w.high = rng.Uint64()
		w.advanced = simtime.Real(rng.Int63n(3*at) - at)
		for j := range w.bits {
			w.bits[j] = rng.Uint64()
		}
		states = append(states, w)
	}
	for i, st := range states {
		w := st
		var num uint64
		switch i % 3 {
		case 1:
			num = rng.Uint64()
		case 2:
			num = st.high - uint64(rng.Intn(replaySpan)) // inside the bitmap
		}
		for now := simtime.Real(at); now <= at+3*replayD; now++ {
			v := w.admit(num, now, replayD)
			if now > at+replayD && v != replayFresh {
				t.Fatalf("state %d (high %d, advanced %d): number %d dropped (%d) at tick %d, more than d = %d after the corruption",
					i, st.high, st.advanced, num, v, now, replayD)
			}
			num++
		}
	}
}

// TestCorruptWindowHealsWithinD runs the same claim through a node's
// receive path: node 1's window for sender 2 is set to the worst state,
// then sender 2 delivers one container per tick with its counter at 0.
// The first frames read as stale, and every frame sent more than d after
// the corruption is delivered.
func TestCorruptWindowHealsWithinD(t *testing.T) {
	c, fake := allocCluster(t)
	dst := c.nodes[1]
	const from = 2
	epoch := dst.expectedEpoch(from)
	start := dst.nowTicks()
	w := &dst.windows[from]
	w.epoch, w.high, w.advanced = epoch, ^uint64(0)-3, start
	for i := range w.bits {
		w.bits[i] = ^uint64(0)
	}
	d := simtime.Real(dst.cfg.Params.D)
	var vals wire.Values
	late := int64(0) // frames sent more than d after the corruption
	for num := uint64(0); dst.nowTicks() <= start+3*d; num++ {
		now := int64(dst.nowTicks())
		if simtime.Real(now) > start+d {
			late++
		}
		payload := wire.AppendMessage(nil, protocol.Message{Kind: protocol.Support, K: int(num), M: "heal"})
		frame := wire.AppendFrame(nil, wire.Frame{Kind: wire.FrameMessage, From: from, Epoch: epoch, Sent: now, Payload: payload})
		f, _, err := wire.DecodeFrame(wire.AppendBatch(nil, from, epoch, now, frame, []int{len(frame)}, num))
		if err != nil {
			t.Fatal(err)
		}
		dst.handleBatch(f, true, &vals)
		fake.Advance(c.Tick())
	}
	s := dst.Stats()
	if s.SeqStale == 0 || s.SeqStale > int64(d)+1 || s.Received < late {
		t.Fatalf("after a corrupted window: %d stale, %d delivered, want at most d+1 = %d stale and at least the %d frames sent after d",
			s.SeqStale, s.Received, d+1, late)
	}
}

// TestReplayWindowRestartsPerIncarnation pins the epoch half of the
// window's key: a rolled sender starts its numbers again at 0, and the
// first container of its new incarnation empties the window instead of
// reading as stale.
func TestReplayWindowRestartsPerIncarnation(t *testing.T) {
	pp := protocol.DefaultParams(4)
	pp.D = 20
	c, err := NewCluster(ClusterConfig{
		Params: pp, Tick: 100 * time.Microsecond, Clock: clock.NewFake(time.Time{}),
		NewNode: func() protocol.Node { return NullNode{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	dst := c.nodes[0]
	var vals wire.Values
	send := func(epoch, num uint64) {
		now := int64(dst.nowTicks())
		frame := messageFrame(1, now, epoch)
		f, _, err := wire.DecodeFrame(wire.AppendBatch(nil, 1, epoch, now, frame, []int{len(frame)}, num))
		if err != nil {
			t.Fatal(err)
		}
		dst.handleBatch(f, true, &vals)
	}
	old := dst.expectedEpoch(1)
	send(old, 10000)
	if err := dst.BumpPeerEpoch(1, 1); err != nil {
		t.Fatal(err)
	}
	send(old+1, 0)
	c.Virtual().WaitIdle()
	if s := dst.Stats(); s.Received != 2 || s.SeqStale != 0 {
		t.Fatalf("the new incarnation's first frame was not admitted: %+v", s)
	}
}
