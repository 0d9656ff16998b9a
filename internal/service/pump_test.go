package service

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"ssbyz/internal/clock"
	"ssbyz/internal/core"
	"ssbyz/internal/nettrans"
	"ssbyz/internal/protocol"
	"ssbyz/internal/simtime"
)

// slotNode is a scriptable multi-slot General: an initiation of a value
// in fail returns that error in any slot, otherwise refuse[slot] is the
// slot's answer (nil = accepted). Every attempt is logged by slot.
type slotNode struct {
	refuse map[int]error
	fail   map[protocol.Value]error
	calls  []int
}

func (n *slotNode) Start(protocol.Runtime)                      {}
func (n *slotNode) OnMessage(protocol.NodeID, protocol.Message) {}
func (n *slotNode) OnTimer(protocol.TimerTag)                   {}

func (n *slotNode) InitiateAgreement(slot int, v protocol.Value) error {
	n.calls = append(n.calls, slot)
	if err := n.fail[v]; err != nil {
		return err
	}
	return n.refuse[slot]
}

// countingBackend runs InitiateFirst on one scripted node, counting the
// round trips a live backend would make into the General's event loop.
type countingBackend struct {
	node  *slotNode
	calls int
}

func (b *countingBackend) Initiate(_ protocol.NodeID, slots []int, v protocol.Value) (int, protocol.Value, error) {
	b.calls++
	return InitiateFirst(b.node, slots, v)
}

// entryValue is the inner value the pump initiates for entry i.
func entryValue(i int) protocol.Value { return protocol.Value(fmt.Sprintf("%d#p%d", i, i)) }

func testPump(be Backend, sessions int, arrivals ...simtime.Real) *Pump {
	return NewPump(PumpConfig{
		Params:     protocol.DefaultParams(4),
		Backend:    be,
		Recorder:   protocol.NewRecorder(),
		Sessions:   sessions,
		QueueLimit: 16,
		Loads:      []Workload{{G: 0, Arrivals: arrivals}},
	})
}

// placement reads each entry's fate after a pass: its slot once
// initiated, -1 once failed, absent while still queued.
func placement(p *Pump) map[int]int {
	out := make(map[int]int)
	for _, e := range p.logs[0].entries {
		switch e.State {
		case EntryInitiated:
			out[e.Index] = e.Slot
		case EntryFailed:
			out[e.Index] = -1
		}
	}
	return out
}

// perSlotPass is the pump's former initiation pass, kept as the
// reference: one backend call per free slot, the queue head moving on
// after a success or a final refusal, staying put after IG1/IG3.
func perSlotPass(n *slotNode, sessions int, entries int) map[int]int {
	out := make(map[int]int)
	next := 0
	for slot := 0; slot < sessions && next < entries; slot++ {
		err := n.InitiateAgreement(slot, entryValue(next))
		switch {
		case err == nil:
			out[next] = slot
		case refusedForNow(err):
			continue
		default:
			out[next] = -1
		}
		next++
	}
	return out
}

// TestPumpOneCallPerEntry pins the single round trip: with the first k
// slots rate-limited (IG1), each entry costs one backend call however
// many slots refuse it, and the node sees the same attempts in the same
// order a per-slot loop would make.
func TestPumpOneCallPerEntry(t *testing.T) {
	const sessions, k = 6, 3
	refuse := map[int]error{}
	for slot := 0; slot < k; slot++ {
		refuse[slot] = core.ErrTooSoon
	}
	node := &slotNode{refuse: refuse}
	be := &countingBackend{node: node}
	p := testPump(be, sessions, 0, 0)
	p.Step(0)
	if be.calls != 2 {
		t.Fatalf("backend calls = %d for 2 entries, want 2", be.calls)
	}
	if got := placement(p); got[0] != k || got[1] != k+1 {
		t.Fatalf("placement = %v, want entry 0 on slot %d and entry 1 on slot %d", got, k, k+1)
	}
	if got, want := fmt.Sprint(node.calls), "[0 1 2 3 4]"; got != want {
		t.Fatalf("node saw attempts %s, want %s (the per-slot loop's order)", got, want)
	}
}

// TestPumpPlacementMatchesPerSlotLoop holds the single-call pass to the
// per-slot loop it replaced over IG1/IG3 and final-refusal patterns.
func TestPumpPlacementMatchesPerSlotLoop(t *testing.T) {
	cases := []struct {
		name     string
		sessions int
		tooSoon  []int // slots refusing with IG1
		backoff  []int // slots refusing with IG3
		failing  []int // entries refused for good in any slot
		entries  int
	}{
		{"all free", 4, nil, nil, nil, 3},
		{"ig1 head", 4, []int{0, 1}, nil, nil, 3},
		{"ig1 and ig3 interleaved", 6, []int{0, 3}, []int{1, 4}, nil, 4},
		{"every slot refuses", 3, []int{0, 1}, []int{2}, nil, 2},
		{"failure moves to the next slot", 4, nil, nil, []int{0}, 3},
		{"failure after refusals", 5, []int{0, 1}, nil, []int{0, 2}, 4},
		{"single session refused", 1, []int{0}, nil, nil, 2},
		{"more entries than slots", 2, nil, nil, nil, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			script := func() *slotNode {
				n := &slotNode{refuse: map[int]error{}, fail: map[protocol.Value]error{}}
				for _, s := range tc.tooSoon {
					n.refuse[s] = core.ErrTooSoon
				}
				for _, s := range tc.backoff {
					n.refuse[s] = core.ErrBackoff
				}
				for _, i := range tc.failing {
					n.fail[entryValue(i)] = errors.New("refused for good")
				}
				return n
			}
			want := perSlotPass(script(), tc.sessions, tc.entries)
			p := testPump(&countingBackend{node: script()}, tc.sessions, make([]simtime.Real, tc.entries)...)
			p.Step(0)
			if got := placement(p); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("placement = %v, per-slot loop gives %v", got, want)
			}
		})
	}
}

// TestPumpFinalRefusalFailsEntry: a refusal other than IG1/IG3 fails the
// entry, and the next entry lands on the next slot.
func TestPumpFinalRefusalFailsEntry(t *testing.T) {
	node := &slotNode{fail: map[protocol.Value]error{entryValue(0): errors.New("bad value")}}
	p := testPump(&countingBackend{node: node}, 3, 0, 0)
	p.Step(0)
	lr := p.Results()[0]
	if e := lr.Entries[0]; e.State != EntryFailed {
		t.Fatalf("entry 0 state %s, want failed", e.State)
	}
	if e := lr.Entries[1]; e.State != EntryInitiated || e.Slot != 1 {
		t.Fatalf("entry 1 state %s slot %d, want initiated on slot 1", e.State, e.Slot)
	}
}

// TestPumpStoppedGeneralFailsEntry: a General whose event loop is gone
// fails the entry instead of hanging the pump.
func TestPumpStoppedGeneralFailsEntry(t *testing.T) {
	pp := protocol.DefaultParams(4)
	c, err := nettrans.NewCluster(nettrans.ClusterConfig{Params: pp, Clock: clock.NewFake(time.Time{})})
	if err != nil {
		t.Fatal(err)
	}
	c.Stop()
	be := ClusterBackend{C: c}
	if _, _, err := be.Initiate(0, []int{0}, "x"); err == nil || !strings.Contains(err.Error(), "cluster stopped") {
		t.Fatalf("Initiate on a stopped cluster: err = %v, want \"cluster stopped\"", err)
	}
	p := NewPump(PumpConfig{Params: pp, Backend: be, Recorder: c.Recorder(), Sessions: 2,
		Loads: []Workload{{G: 0, Arrivals: []simtime.Real{0, 0}}}})
	p.Step(0)
	if lr := p.Results()[0]; lr.Failed != 2 {
		t.Fatalf("failed = %d of 2 entries at a stopped General", lr.Failed)
	}
}

// TestPumpNextWake pins the wall-clock runner's wake schedule: the next arrival
// not yet admitted, the first instant a reclaim fires, and a d/4 poll only
// while every free slot refused the queue head.
func TestPumpNextWake(t *testing.T) {
	pp := protocol.DefaultParams(4)
	failAfter := simtime.Real(pp.DeltaAgr()) + 8*simtime.Real(pp.D)
	quarter := simtime.Real(pp.D / 4)
	cases := []struct {
		name     string
		sessions int
		refuse   []int // slots refusing with IG1 on every step but the last
		arrivals []simtime.Real
		steps    []simtime.Real
		want     simtime.Real
	}{
		{"nothing scheduled", 1, nil, nil, []simtime.Real{0}, Never},
		{"next arrival", 1, nil, []simtime.Real{100, 200}, []simtime.Real{50}, 100},
		{"reclaim of the one in flight", 1, nil, []simtime.Real{0}, []simtime.Real{7}, 7 + failAfter + 1},
		{"arrival before reclaim", 2, nil, []simtime.Real{0, 40}, []simtime.Real{0}, 40},
		{"earliest reclaim of several", 2, nil, []simtime.Real{0, 30}, []simtime.Real{10, 30}, 10 + failAfter + 1},
		{"every free slot refused", 2, []int{0, 1}, []simtime.Real{0}, []simtime.Real{10}, 10 + quarter},
		{"queued behind busy slots waits on decide or reclaim", 1, nil, []simtime.Real{0, 0}, []simtime.Real{0}, failAfter + 1},
		{"poll stops once the refusal lifts", 1, []int{0}, []simtime.Real{0}, []simtime.Real{0, 20}, 20 + failAfter + 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			node := &slotNode{refuse: map[int]error{}}
			for _, s := range tc.refuse {
				node.refuse[s] = core.ErrTooSoon
			}
			p := testPump(&countingBackend{node: node}, tc.sessions, tc.arrivals...)
			for i, now := range tc.steps {
				if i == len(tc.steps)-1 && len(tc.steps) > 1 {
					clear(node.refuse)
				}
				p.Step(now)
			}
			if got := p.NextWake(tc.steps[len(tc.steps)-1]); got != tc.want {
				t.Fatalf("NextWake = %d, want %d", got, tc.want)
			}
		})
	}
}
