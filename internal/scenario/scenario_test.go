package scenario

import (
	"reflect"
	"testing"

	"ssbyz/internal/protocol"
	"ssbyz/internal/simnet"
	"ssbyz/internal/simtime"
)

func TestGeneratedSpecsAreValidAndDeterministic(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		sp := Generate(seed, 7)
		if err := sp.Validate(); err != nil {
			t.Fatalf("seed %d: generated spec invalid: %v", seed, err)
		}
		again := Generate(seed, 7)
		if !reflect.DeepEqual(sp, again) {
			t.Fatalf("seed %d: generator not deterministic", seed)
		}
	}
	// Different seeds explore the space (no degenerate constant generator).
	if reflect.DeepEqual(Generate(1, 7), Generate(2, 7)) {
		t.Fatal("seeds 1 and 2 generated identical specs")
	}
}

func TestGeneratedSpecsDropOnlyAroundFaultyNodes(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		sp := Generate(seed, 16)
		faulty := map[protocol.NodeID]bool{}
		for _, a := range sp.Adversaries {
			faulty[a.Node] = true
		}
		for _, c := range sp.Conditions {
			if c.Kind == simnet.CondJitter {
				continue
			}
			for _, id := range c.Nodes {
				if !faulty[id] {
					t.Fatalf("seed %d: %s window names correct node %d — model-illegal drop",
						seed, c.Kind, id)
				}
			}
		}
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	sp := Generate(11, 7)
	back, err := Parse(sp.Marshal())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !reflect.DeepEqual(sp, back) {
		t.Fatalf("round trip changed the spec:\n%+v\nvs\n%+v", sp, back)
	}
}

func TestRunCheckReplaysIdentically(t *testing.T) {
	// The spec carries all entropy: running the same spec twice must give
	// identical violation sets and message counts.
	for seed := int64(0); seed < 5; seed++ {
		sp := Generate(seed, 7)
		resA, vA := RunCheck(sp)
		resB, vB := RunCheck(sp)
		if !reflect.DeepEqual(vA, vB) {
			t.Fatalf("seed %d: violations differ across replays: %v vs %v", seed, vA, vB)
		}
		if resA == nil || resB == nil {
			t.Fatalf("seed %d: run failed: %v", seed, vA)
		}
		totA, _ := resA.World.MessageCount()
		totB, _ := resB.World.MessageCount()
		if totA != totB {
			t.Fatalf("seed %d: message counts differ: %d vs %d", seed, totA, totB)
		}
	}
}

func TestGeneratedCampaignHoldsTheBattery(t *testing.T) {
	if testing.Short() {
		t.Skip("runs dozens of simulations; skipped in -short")
	}
	// The paper's properties hold under every adversary the model admits,
	// so every generated (model-legal) spec must pass the full battery.
	for seed := int64(0); seed < 30; seed++ {
		sp := Generate(seed, 7)
		if _, violations := RunCheck(sp); len(violations) != 0 {
			t.Errorf("seed %d: %d violations, e.g. %v\nspec:\n%s",
				seed, len(violations), violations[0], sp.Marshal())
		}
	}
}

func TestValidateRejectsIllegalSpecs(t *testing.T) {
	base := func() Spec {
		return Spec{N: 7, Seed: 1,
			Script: []Initiation{{At: 2000, G: 0, Value: "v"}}}
	}
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"n<=3f", func(sp *Spec) { sp.F = 2; sp.N = 6 }},
		{"too many adversaries", func(sp *Spec) {
			for i := 1; i <= 3; i++ {
				sp.Adversaries = append(sp.Adversaries,
					AdversarySpec{Node: protocol.NodeID(i), Kind: KindCrash})
			}
		}},
		{"duplicate adversary node", func(sp *Spec) {
			sp.Adversaries = []AdversarySpec{
				{Node: 1, Kind: KindCrash}, {Node: 1, Kind: KindYeasayer}}
		}},
		{"faulty scripted General", func(sp *Spec) {
			sp.Adversaries = []AdversarySpec{{Node: 0, Kind: KindYeasayer}}
		}},
		{"double initiation", func(sp *Spec) {
			sp.Script = append(sp.Script, Initiation{At: 9000, G: 0, Value: "w"})
		}},
		{"bottom value", func(sp *Spec) { sp.Script[0].Value = protocol.Bottom }},
		{"unknown kind", func(sp *Spec) {
			sp.Adversaries = []AdversarySpec{{Node: 1, Kind: "gremlin"}}
		}},
		{"compose without parts", func(sp *Spec) {
			sp.Adversaries = []AdversarySpec{{Node: 1, Kind: KindCompose}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := base()
			tc.mut(&sp)
			if err := sp.Validate(); err == nil {
				t.Error("Validate accepted an illegal spec")
			}
		})
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("base spec invalid: %v", err)
	}
}

// TestWeakenedCheckerYieldsMinimizedReplayableSpec is the acceptance
// exercise for the search loop: a deliberately weakened checker (decision
// skew bound tightened from the paper's 3d to zero — unsatisfiable under
// randomized delays) flags a generated spec; Shrink minimizes it; the
// minimized spec still fails, is 1-minimal, and replays to the identical
// verdict after a JSON round trip — exactly what `ssbyz-bench -replay`
// does with an exported counterexample.
func TestWeakenedCheckerYieldsMinimizedReplayableSpec(t *testing.T) {
	// The weakened checker: ANY nonzero decision skew between two correct
	// deciders of a scripted General is a "violation".
	skewed := func(sp Spec) bool {
		res, err := Run(sp)
		if err != nil {
			return false
		}
		for _, init := range sp.Script {
			var rts []simtime.Real
			for _, d := range res.Decisions(init.G) {
				if d.Decided {
					rts = append(rts, d.RT)
				}
			}
			for _, rt := range rts {
				if rt != rts[0] {
					return true
				}
			}
		}
		return false
	}

	// Find a generated spec the weakened checker flags (randomized delays
	// make nonzero skew near-certain once anything decides).
	var failing *Spec
	for seed := int64(0); seed < 20; seed++ {
		sp := Generate(seed, 7)
		if skewed(sp) {
			failing = &sp
			break
		}
	}
	if failing == nil {
		t.Fatal("no generated spec tripped the weakened checker")
	}

	min := Shrink(*failing, skewed)
	if !skewed(min) {
		t.Fatal("minimized spec no longer fails")
	}
	if min.components() > failing.components() {
		t.Fatalf("shrink grew the spec: %d -> %d components",
			failing.components(), min.components())
	}
	// 1-minimality: every single further removal loses the failure.
	for _, cand := range shrinkCandidates(min) {
		if cand.components() < min.components() && skewed(cand) {
			t.Fatalf("not 1-minimal: a smaller failing candidate remains:\n%s", cand.Marshal())
		}
	}
	// Replay discipline: the JSON artifact reproduces the exact verdict.
	back, err := Parse(min.Marshal())
	if err != nil {
		t.Fatalf("minimized spec does not parse: %v", err)
	}
	if !skewed(back) {
		t.Fatal("replayed minimized spec does not reproduce the failure")
	}
	_, vA := RunCheck(back)
	_, vB := RunCheck(back)
	if !reflect.DeepEqual(vA, vB) {
		t.Fatalf("replay verdicts differ: %v vs %v", vA, vB)
	}
}
