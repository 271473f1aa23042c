package validate

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"gfd/internal/cluster"
	"gfd/internal/core"
	"gfd/internal/graph"
	"gfd/internal/pattern"
)

// patchRules covers each pivot shape the estimation phase lists
// candidates for: a splittable one-component chain, a pattern of two
// isomorphic components (a symmetric two-component pivot), and a wildcard
// pivot whose candidate class is every node.
func patchRules() *core.Set {
	chain := pattern.New()
	x := chain.AddNode("x", "A")
	y := chain.AddNode("y", "B")
	z := chain.AddNode("z", "C")
	chain.AddEdge(x, y, "e")
	chain.AddEdge(y, z, "f")

	pair := pattern.New()
	a1 := pair.AddNode("a1", "A")
	b1 := pair.AddNode("b1", "B")
	a2 := pair.AddNode("a2", "A")
	b2 := pair.AddNode("b2", "B")
	pair.AddEdge(a1, b1, "e")
	pair.AddEdge(a2, b2, "e")

	wild := pattern.New()
	w := wild.AddNode("w", pattern.Wildcard)
	c := wild.AddNode("c", "C")
	wild.AddEdge(w, c, "f")

	return core.MustNewSet(
		core.MustNew("chain", chain, nil, []core.Literal{core.VarEq("x", "val", "z", "val")}),
		core.MustNew("pair", pair, []core.Literal{core.VarEq("a1", "val", "a2", "val")},
			[]core.Literal{core.VarEq("b1", "val", "b2", "val")}),
		core.MustNew("wild", wild, nil, []core.Literal{core.VarEq("w", "val", "c", "val")}),
	)
}

// patchValue draws the sort attribute from three values or leaves it
// missing, so the sorted candidate lists are mostly ties.
func patchValue(rng *rand.Rand) graph.Attrs {
	if rng.Intn(4) == 0 {
		return graph.Attrs{"p": "x"}
	}
	return graph.Attrs{sortAttr: fmt.Sprint(rng.Intn(3))}
}

// patchOptions are the option variants every version is planned under:
// N ∈ {1, 2, 3}, HistogramM 1 and 16, splitting at the derived and at a
// small explicit threshold, and the *nop variant.
var patchOptions = []Options{
	{N: 1, HistogramM: 16},
	{N: 2, HistogramM: 1},
	{N: 3, HistogramM: 16, SplitThreshold: 3},
	{N: 2, HistogramM: 16, NoOptimize: true},
}

// planOf plans opt on b the way parVal does.
func planOf(t *testing.T, b *Bundle, opt Options) *planEntry {
	t.Helper()
	opt = opt.Normalized()
	_, groups, gk := b.ruleGroupsKeyed(opt)
	p, _, err := b.planFor(cluster.New(opt.N, opt.Cost), groups, gk, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// samePlan reports the first difference between two plans: unit
// sequence, split count, total weight, makespan and assignment.
func samePlan(got, want *planEntry) string {
	if len(got.units) != len(want.units) {
		return fmt.Sprintf("%d units, cold plan has %d", len(got.units), len(want.units))
	}
	for i := range got.units {
		g, w := got.units[i], want.units[i]
		if !reflect.DeepEqual(g.Candidates, w.Candidates) || g.BlockSize != w.BlockSize ||
			g.group != w.group || g.stripeMod != w.stripeMod || g.stripeRem != w.stripeRem {
			return fmt.Sprintf("unit %d: %v (group %d, stripe %d/%d), cold plan %v (group %d, stripe %d/%d)",
				i, g.Unit, g.group, g.stripeRem, g.stripeMod, w.Unit, w.group, w.stripeRem, w.stripeMod)
		}
	}
	switch {
	case got.split != want.split:
		return fmt.Sprintf("split %d, cold plan %d", got.split, want.split)
	case got.totalWeight != want.totalWeight:
		return fmt.Sprintf("total weight %d, cold plan %d", got.totalWeight, want.totalWeight)
	case got.makespan != want.makespan:
		return fmt.Sprintf("makespan %d, cold plan %d", got.makespan, want.makespan)
	case !reflect.DeepEqual(got.assign, want.assign):
		return fmt.Sprintf("assignment %v, cold plan %v", got.assign, want.assign)
	}
	return ""
}

// TestPatchedPlanMatchesCold runs random update sequences through a live
// overlay, superseding a bundle per version the way Prepared does, and
// checks every plan the patched bundles build against the plan a cold
// bundle builds over the same topology. The sequences mix AddNode,
// AddEdge and SetAttr, cross several compactions, and leave some versions
// unplanned, so deltas also chain across bundles that never estimated.
func TestPatchedPlanMatchesCold(t *testing.T) {
	set := patchRules()
	labels := []string{"A", "B", "C"}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := graph.New(0, 0)
		for i := 0; i < 40; i++ {
			g.AddNode(labels[rng.Intn(len(labels))], patchValue(rng))
		}
		for i := 0; i < 60; i++ {
			g.MustAddEdge(graph.NodeID(rng.Intn(40)), graph.NodeID(rng.Intn(40)), []string{"e", "f"}[rng.Intn(2)])
		}
		ov := graph.NewOverlay(g)
		var prev *Bundle
		compactions, planned := 0, 0
		for version := 0; version < 60; version++ {
			if version > 0 {
				for k := 1 + rng.Intn(5); k > 0; k-- {
					n := graph.NodeID(ov.NumNodes())
					switch rng.Intn(3) {
					case 0:
						ov.AddNode(labels[rng.Intn(len(labels))], patchValue(rng))
					case 1:
						ov.MustAddEdge(graph.NodeID(rng.Intn(int(n))), graph.NodeID(rng.Intn(int(n))), []string{"e", "f"}[rng.Intn(2)])
					default:
						if rng.Intn(5) == 0 {
							ov.SetAttr(graph.NodeID(rng.Intn(int(n))), "p", "y") // not the sort attribute
						} else {
							ov.SetAttr(graph.NodeID(rng.Intn(int(n))), sortAttr, fmt.Sprint(rng.Intn(3)))
						}
					}
				}
				if ov.NeedsCompaction() {
					ov = graph.NewOverlay(g)
					compactions++
				}
			}
			b := NewBundleOver(g, ov, set, prev)
			prev = b
			if version > 0 && rng.Intn(4) == 0 {
				continue // unplanned: the next bundle chains this delta
			}
			cold := NewBundleOver(g, ov, set, nil)
			for _, opt := range patchOptions {
				if why := samePlan(planOf(t, b, opt), planOf(t, cold, opt)); why != "" {
					t.Fatalf("seed %d version %d %+v: patched plan differs: %s", seed, version, opt, why)
				}
			}
			planned++
		}
		if compactions == 0 {
			t.Fatalf("seed %d: the sequence never compacted", seed)
		}
		// Only the first bundle plans cold; every later one patches,
		// compactions included.
		st := prev.EstimationStats()
		if st.Builds-st.Patched != len(patchOptions) || st.Patched == 0 {
			t.Fatalf("seed %d: %+v over %d planned versions, want %d cold builds and the rest patched",
				seed, st, planned, len(patchOptions))
		}
	}
}
