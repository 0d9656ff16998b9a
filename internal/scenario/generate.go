package scenario

import (
	"fmt"
	"math/rand"
	"sort"

	"ssbyz/internal/protocol"
	"ssbyz/internal/simnet"
	"ssbyz/internal/simtime"
)

// Generate derives one model-legal randomized Spec from (seed, n): up to
// f adversaries drawn from the full strategy vocabulary (primitives,
// compositions, staged switches, adaptive triggers), a randomized General
// script, a randomized legal delay range, and a network-condition
// schedule. Determinism is total: every bit of the spec comes from the
// seed, and the spec carries its own simulation seed, so (seed, n) →
// spec → run → verdict is a pure function.
//
// Model legality is the generator's contract — the paper's properties are
// only claimed under the model, so every generated spec stays inside it:
//
//   - n > 3f with at most f adversaries (the resilience precondition);
//   - jitter windows may touch any link (clamped jitter keeps delays
//     within [DelayMin, DelayMax] ≤ d, so the delivery axiom holds);
//   - partition and churn windows, which DROP messages, only ever name
//     faulty nodes: silencing an adversary is just more adversary
//     behavior, while disconnecting correct nodes would void the very
//     axioms the battery checks (DESIGN.md §6).
//
// A spec that violates the battery is therefore a genuine counterexample
// to the paper's claims (or to this reproduction's faithfulness), never a
// broken test harness.
func Generate(seed int64, n int) Spec {
	rng := rand.New(rand.NewSource(seed))
	pp := protocol.DefaultParams(n)
	d := pp.D
	sp := Spec{N: n, Seed: rng.Int63()}

	// Legal delay range: 1 ≤ DelayMin ≤ d/2 and DelayMin ≤ DelayMax ≤ d
	// (explicitly non-zero so the spec never falls back to defaults).
	sp.DelayMin = 1 + simtime.Duration(rng.Int63n(int64(d/2)))
	sp.DelayMax = sp.DelayMin + simtime.Duration(rng.Int63n(int64(d-sp.DelayMin)+1))

	// Faulty set: 0..f nodes, then the General script over correct nodes.
	perm := rng.Perm(n)
	fCount := rng.Intn(pp.F + 1)
	faulty := append([]int(nil), perm[:fCount]...)
	correct := perm[fCount:]
	maxGen := len(correct)
	if maxGen > 3 {
		maxGen = 3
	}
	gCount := 1 + rng.Intn(maxGen)
	var lastAt simtime.Real
	for i := 0; i < gCount; i++ {
		at := simtime.Real(2*d) + simtime.Real(rng.Int63n(int64(2*pp.DeltaAgr())))
		if at > lastAt {
			lastAt = at
		}
		sp.Script = append(sp.Script, Initiation{
			At: at, G: protocol.NodeID(correct[i]), Value: protocol.Value(fmt.Sprintf("v%d", i)),
		})
	}
	// Budget the horizon for the latest possible protocol activity: the
	// last scripted initiation, or a staged adversary's compounded attack
	// (switch ≤ d+Δagr, then a timer ≤ d+Δagr after the switch). 3Δagr on
	// top covers resolution plus the expiry sweep, so every generated
	// attack finishes well inside the run and the battery judges all of it.
	lastAttack := simtime.Real(2*d + 2*pp.DeltaAgr())
	if lastAt > lastAttack {
		lastAttack = lastAt
	}
	sp.RunFor = simtime.Duration(lastAttack) + 3*pp.DeltaAgr()

	// Adversaries: primitives, compositions, staged switches, adaptive
	// triggers — one strategy tree per faulty node.
	g := specgen{rng: rng, pp: pp, script: sp.Script}
	for _, node := range faulty {
		sp.Adversaries = append(sp.Adversaries, g.adversary(protocol.NodeID(node)))
	}
	sortAdversaries(sp.Adversaries)

	// Network conditions: jitter anywhere, drops only around faulty nodes.
	horizon := int64(sp.RunFor)
	if rng.Intn(2) == 0 {
		for i, count := 0, 1+rng.Intn(2); i < count; i++ {
			from := simtime.Real(rng.Int63n(horizon))
			c := simnet.Condition{
				Kind:   simnet.CondJitter,
				From:   from,
				Until:  from + simtime.Real(int64(d)*(1+rng.Int63n(19))),
				Jitter: simtime.Duration(rng.Int63n(int64(d) + 1)),
			}
			if rng.Intn(2) == 0 { // scoped to a random link neighbourhood
				c.Nodes = g.nodeSubset(n, 1+rng.Intn(n-1))
			}
			sp.Conditions = append(sp.Conditions, c)
		}
	}
	if fCount > 0 && rng.Intn(5) < 2 {
		kind := simnet.CondPartition
		if rng.Intn(2) == 0 {
			kind = simnet.CondChurn
		}
		from := simtime.Real(rng.Int63n(horizon))
		group := make([]protocol.NodeID, 0, fCount)
		for _, node := range faulty {
			if len(group) == 0 || rng.Intn(2) == 0 {
				group = append(group, protocol.NodeID(node))
			}
		}
		sortNodes(group)
		sp.Conditions = append(sp.Conditions, simnet.Condition{
			Kind:  kind,
			From:  from,
			Until: from + simtime.Real(int64(d)*(1+rng.Int63n(29))),
			Nodes: group,
		})
	}
	return sp
}

// GenerateLive derives one model-legal live-runtime Spec from (seed, n):
// a RuntimeVirtual spec (byte-deterministic, so (seed, n) → spec → run →
// verdict stays a pure function) with an early General script, up to f
// adversaries, optionally one mid-run transient fault on a correct node
// (with a probe agreement after its Δstb window), and a schedule of
// wire-level network conditions over the live vocabulary.
//
// The legality contract extends Generate's: besides the simulator rules,
//
//   - wan, duplicate, and jitter windows may touch any link — geo delays
//     and env jitter clamp into the chaos layer's d/2 share of the
//     delivery bound, and the receive anti-replay window absorbs
//     duplicates, so the bounded-delay axiom survives;
//   - corrupt, replay, forge, and hostile reorder windows only ever name
//     faulty nodes: a byte-attacker on an adversary's NIC is just more
//     Byzantine behavior, while unbounded holds or garbage on correct
//     links would void the very axioms the battery checks;
//   - scripted faults keep the paper's phase separation — every pre-fault
//     initiation resolves 3Δagr before the injection, and the probe only
//     starts after the fault's Δstb re-stabilization budget.
func GenerateLive(seed int64, n int) Spec {
	rng := rand.New(rand.NewSource(seed))
	pp := protocol.DefaultParams(n)
	d := pp.D
	sp := Spec{N: n, Seed: rng.Int63(), Runtime: RuntimeVirtual}

	// Legal live delay range: 1 ≤ DelayMin ≤ DelayMax ≤ d/2 (the chaos
	// layer owns the other half of d).
	sp.DelayMin = 1 + simtime.Duration(rng.Int63n(int64(d/4)))
	sp.DelayMax = sp.DelayMin + simtime.Duration(rng.Int63n(int64(d/2-sp.DelayMin)+1))

	perm := rng.Perm(n)
	fCount := rng.Intn(pp.F + 1)
	faulty := append([]int(nil), perm[:fCount]...)
	correct := perm[fCount:]

	// Pre-fault script: one or two early initiations by correct Generals.
	gCount := 1 + rng.Intn(2)
	var lastPre simtime.Real
	for i := 0; i < gCount; i++ {
		at := simtime.Real(2*d) + simtime.Real(rng.Int63n(int64(pp.DeltaAgr())))
		if at > lastPre {
			lastPre = at
		}
		sp.Script = append(sp.Script, Initiation{
			At: at, G: protocol.NodeID(correct[i]), Value: protocol.Value(fmt.Sprintf("v%d", i)),
		})
	}

	// Optionally corrupt one running correct node, clear of the pre-fault
	// script, and optionally probe with a fresh agreement after Δstb.
	if rng.Intn(2) == 0 {
		faultAt := lastPre + simtime.Real(3*pp.DeltaAgr()) + simtime.Real(rng.Int63n(int64(2*d))+1)
		sp.Faults = append(sp.Faults, Fault{
			At:   faultAt,
			Node: protocol.NodeID(correct[rng.Intn(len(correct))]),
			Seed: rng.Int63(), SeverityPermille: 200 + rng.Intn(801),
		})
		if rng.Intn(2) == 0 {
			postAt := faultAt + simtime.Real(pp.DeltaStb()) + simtime.Real(rng.Int63n(int64(d))+1)
			sp.Script = append(sp.Script, Initiation{
				// correct[gCount] is the first correct node with no
				// pre-fault initiation (one initiation per General).
				At: postAt, G: protocol.NodeID(correct[gCount]), Value: "vpost",
			})
		}
	}

	// Horizon: liveHorizon covers the script and the fault's Δstb window;
	// the floor additionally covers a staged adversary's compounded attack
	// (switch ≤ d+Δagr, timer ≤ d+Δagr after it, 3Δagr to resolve).
	sp.RunFor = sp.liveHorizon(pp)
	if floor := simtime.Duration(lastPre) + 2*d + 5*pp.DeltaAgr(); sp.RunFor < floor {
		sp.RunFor = floor
	}

	// Adversaries: the full strategy vocabulary, one tree per faulty node.
	g := specgen{rng: rng, pp: pp, script: sp.Script}
	for _, node := range faulty {
		sp.Adversaries = append(sp.Adversaries, g.adversary(protocol.NodeID(node)))
	}
	sortAdversaries(sp.Adversaries)

	// Network conditions over the live vocabulary.
	horizon := int64(sp.RunFor)
	window := func(maxWindows int64) (simtime.Real, simtime.Real) {
		from := simtime.Real(rng.Int63n(horizon))
		return from, from + simtime.Real(int64(d)*(1+rng.Int63n(maxWindows)))
	}
	if rng.Intn(2) == 0 { // geo-WAN: two regions, asymmetric base delays
		regions := g.wanRegions(n)
		matrix := make([][]simtime.Duration, len(regions))
		for a := range matrix {
			matrix[a] = make([]simtime.Duration, len(regions))
			for b := range matrix[a] {
				if a != b {
					matrix[a][b] = simtime.Duration(rng.Int63n(int64(d)) + 1)
				}
			}
		}
		from, until := window(20)
		c := simnet.Condition{
			Kind: simnet.CondWAN, From: from, Until: until,
			Groups: regions, Matrix: matrix,
			Jitter: simtime.Duration(rng.Int63n(int64(d/2) + 1)),
		}
		if rng.Intn(3) == 0 {
			c.Rate = 1 + rng.Intn(4)
		}
		sp.Conditions = append(sp.Conditions, c)
	}
	if rng.Intn(2) == 0 { // duplication: absorbed by the anti-replay window
		from, until := window(10)
		sp.Conditions = append(sp.Conditions, simnet.Condition{
			Kind: simnet.CondDuplicate, From: from, Until: until,
			Copies: 1 + rng.Intn(3), Stride: rng.Intn(4),
		})
	}
	if fCount > 0 { // byte-level attacks, scoped to adversary NICs
		attackers := make([]protocol.NodeID, 0, fCount)
		for _, node := range faulty {
			if len(attackers) == 0 || rng.Intn(2) == 0 {
				attackers = append(attackers, protocol.NodeID(node))
			}
		}
		sortNodes(attackers)
		for _, kind := range []string{simnet.CondCorrupt, simnet.CondReplay, simnet.CondForge, simnet.CondReorder} {
			if rng.Intn(3) != 0 {
				continue
			}
			from, until := window(10)
			c := simnet.Condition{Kind: kind, From: from, Until: until,
				Nodes: attackers, Stride: rng.Intn(3)}
			switch kind {
			case simnet.CondReorder:
				c.Jitter = simtime.Duration(rng.Int63n(int64(3*d)) + 1)
			case simnet.CondReplay:
				c.CrossEpoch = rng.Intn(2) == 0
			}
			sp.Conditions = append(sp.Conditions, c)
		}
	}
	return sp
}

// specgen carries the generator's shared draw context.
type specgen struct {
	rng    *rand.Rand
	pp     protocol.Params
	script []Initiation
}

// scriptedG picks a scripted General — the natural target of reactive
// strategies.
func (g *specgen) scriptedG() protocol.NodeID {
	return g.script[g.rng.Intn(len(g.script))].G
}

// wanRegions splits the cluster into two disjoint geo regions.
func (g *specgen) wanRegions(n int) [][]protocol.NodeID {
	perm := g.rng.Perm(n)
	cut := 1 + g.rng.Intn(n-1)
	a := make([]protocol.NodeID, 0, cut)
	b := make([]protocol.NodeID, 0, n-cut)
	for i, node := range perm {
		if i < cut {
			a = append(a, protocol.NodeID(node))
		} else {
			b = append(b, protocol.NodeID(node))
		}
	}
	sortNodes(a)
	sortNodes(b)
	return [][]protocol.NodeID{a, b}
}

// nodeSubset draws size distinct node IDs, sorted.
func (g *specgen) nodeSubset(n, size int) []protocol.NodeID {
	perm := g.rng.Perm(n)
	out := make([]protocol.NodeID, size)
	for i := range out {
		out[i] = protocol.NodeID(perm[i])
	}
	sortNodes(out)
	return out
}

// adversary draws one strategy tree for the given faulty node.
func (g *specgen) adversary(node protocol.NodeID) AdversarySpec {
	switch g.rng.Intn(10) {
	case 6: // compose: several strategies on one node
		a := AdversarySpec{Node: node, Kind: KindCompose,
			Parts: []AdversarySpec{g.leaf(node), g.leaf(node)}}
		return a
	case 7: // staged: switch strategies mid-run
		first := g.leaf(node)
		second := g.leaf(node)
		// At doubles as the switch-over time AND (for timer-driven leaves)
		// the member's own attack delay relative to the switch — the
		// horizon budget above assumes both stay ≤ d+Δagr.
		second.At = g.pp.D + simtime.Duration(g.rng.Int63n(int64(g.pp.DeltaAgr())))
		return AdversarySpec{Node: node, Kind: KindStaged,
			Parts: []AdversarySpec{first, second}}
	case 8: // adaptive: arm on the first observed wave of a scripted General
		a := AdversarySpec{Node: node, Kind: KindAdaptive, G: g.scriptedG()}
		if g.rng.Intn(2) == 0 {
			a.Parts = []AdversarySpec{g.leaf(node), g.leaf(node)}
		} else {
			a.Parts = []AdversarySpec{g.leaf(node)}
		}
		return a
	default:
		return g.leaf(node)
	}
}

// leaf draws one primitive strategy.
func (g *specgen) leaf(node protocol.NodeID) AdversarySpec {
	d := g.pp.D
	attackAt := func() simtime.Duration {
		return d + simtime.Duration(g.rng.Int63n(int64(g.pp.DeltaAgr())))
	}
	a := AdversarySpec{Node: node}
	switch g.rng.Intn(10) {
	case 0:
		a.Kind = KindCrash
	case 1:
		a.Kind = KindYeasayer
	case 2:
		a.Kind = KindEquivocator
		a.At = attackAt()
		a.Values = []protocol.Value{"ea", "eb"}
	case 3:
		a.Kind = KindPartial
		a.At = attackAt()
		a.Values = []protocol.Value{"p"}
		a.Targets = g.nodeSubset(g.pp.N, 1+g.rng.Intn(g.pp.N-1))
		a.Hold = simtime.Duration(g.rng.Int63n(int64(d) + 1))
	case 4:
		a.Kind = KindLate
		a.G = g.scriptedG()
		a.Hold = simtime.Duration(g.rng.Int63n(int64(3 * d)))
	case 5:
		a.Kind = KindSpam
		a.Hold = simtime.Duration(int64(d) * (2 + g.rng.Int63n(8)))
	case 6:
		a.Kind = KindReplay
		a.At = simtime.Duration(int64(d) * (2 + g.rng.Int63n(20)))
	case 7:
		a.Kind = KindForge
		a.G = g.scriptedG()
		a.Targets = g.nodeSubset(g.pp.N, 1)
		a.At = attackAt()
		a.Values = []protocol.Value{"fv"}
	case 8:
		a.Kind = KindMirror
	default:
		a.Kind = KindEdge
	}
	return a
}

func sortNodes(ids []protocol.NodeID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}
