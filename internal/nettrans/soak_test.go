package nettrans

import (
	"fmt"
	"testing"
	"time"

	"ssbyz/internal/check"
	"ssbyz/internal/clock"
	"ssbyz/internal/core"
	"ssbyz/internal/protocol"
	"ssbyz/internal/simtime"
)

// TestVirtualAcceleratedSoak compresses simulated hours of a 7-node
// cluster into CI seconds: a burst of agreements (churn), then a
// transient fault — the control state of f nodes scrambled through the
// core corruption hooks — then a quiet stretch of Δstb virtual time
// crossed under FakeClock auto-advance with the test registered as the
// driver, and finally a fresh agreement that must go through cleanly.
// The paper's self-stabilization claim, run operationally: whatever the
// transient left behind, Δstb later the system behaves as if it never
// happened. With a 1s tick, Δstb at d=50 is 23200 virtual seconds
// (≈ 6.4 hours); the whole test must stay far under 60s of wall clock.
func TestVirtualAcceleratedSoak(t *testing.T) {
	wallStart := time.Now()

	pp := protocol.DefaultParams(7)
	pp.D = 50
	const tick = time.Second
	clk := clock.NewFake(time.Time{})
	c, err := NewCluster(ClusterConfig{
		Params: pp,
		Tick:   tick,
		Clock:  clk,
		Seed:   7,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Stop()
	budget := time.Duration(pp.DeltaAgr()+20*pp.D) * tick

	// Churn: a run of agreements from rotating Generals.
	for g := protocol.NodeID(0); g < 3; g++ {
		v := protocol.Value(fmt.Sprintf("churn-%d", g))
		if _, _, err := c.Initiate(g, 0, v); err != nil {
			t.Fatalf("churn initiate g=%d: %v", g, err)
		}
		if done := c.AwaitDecisions(g, v, budget); done != 7 {
			t.Fatalf("churn g=%d: decided %d/7", g, done)
		}
	}

	// Transient fault: scramble the control state of f=2 nodes. Each
	// corruption hook plants a configuration no execution could have
	// produced — a mid-agreement anchor with no messages behind it, a
	// return with no reset pending, phantom accepted broadcasts, and
	// garbage General-side backoff bookkeeping.
	now := simtime.Local(c.NowTicks())
	for _, id := range []protocol.NodeID{1, 2} {
		c.DoWait(id, func(n protocol.Node) {
			cn := n.(*core.Node)
			inst := cn.InstanceWithRuntime(nil, 3)
			inst.CorruptMidAgreement(now-simtime.Local(3*pp.D), "phantom")
			inst.CorruptLevel("phantom", 1, 5, now-simtime.Local(2*pp.D))
			cn.InstanceWithRuntime(nil, 4).CorruptReturned(now-simtime.Local(pp.D), true, "ghost")
			cn.CorruptGeneralState(now, now+simtime.Local(pp.DeltaV()))
		})
	}

	// Stabilization: sleep Δstb of virtual time. The test goroutine is
	// the registered driver; AutoAdvance rushes the clock from timer to
	// timer (decay sweeps, recovery resets) while we are asleep and
	// holds it still the moment we wake.
	stop := clk.AutoAdvance()
	clk.Register()
	clk.Sleep(time.Duration(pp.DeltaStb()) * tick)
	clk.Unregister()
	stop()
	clk.WaitIdle()

	// Post-stabilization: the corrupted instances must be swept...
	for _, id := range []protocol.NodeID{1, 2} {
		c.DoWait(id, func(n protocol.Node) {
			cn := n.(*core.Node)
			for _, g := range []protocol.NodeID{3, 4} {
				if returned, _, _ := cn.Result(g); returned {
					t.Errorf("node %d still holds a returned instance for g=%d after Δstb", id, g)
				}
			}
		})
	}

	// ...and a fresh agreement must run cleanly, including on the
	// previously corrupted nodes.
	suffixStart := c.NowTicks()
	t0, _, err := c.Initiate(5, 0, "post-stab")
	if err != nil {
		t.Fatalf("post-stabilization initiate: %v", err)
	}
	if done := c.AwaitDecisions(5, "post-stab", budget); done != 7 {
		t.Fatalf("post-stabilization: decided %d/7", done)
	}

	// Battery over the post-stabilization suffix of the trace: the
	// recovered system must satisfy every property on its fresh history.
	var suffix []protocol.TraceEvent
	for _, ev := range c.rec.Events() {
		if ev.RT >= suffixStart {
			suffix = append(suffix, ev)
		}
	}
	horizon := simtime.Duration(c.NowTicks()) + 1
	lr := &check.LiveResult{Result: BuildResult(pp, suffix, c.Correct(), horizon)}
	if v := lr.Battery([]check.LiveInitiation{{G: 5, V: "post-stab", T0: t0}}); len(v) != 0 {
		t.Fatalf("post-stabilization battery: %v", v)
	}

	if virt := time.Duration(c.NowTicks()) * tick; virt < 4*time.Hour {
		t.Fatalf("soak covered only %v of virtual time, want hours", virt)
	}
	if wall := time.Since(wallStart); wall > 60*time.Second {
		t.Fatalf("soak took %v of wall clock, want < 60s", wall)
	}
}
