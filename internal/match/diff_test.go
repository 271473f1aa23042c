// Differential property tests: enumeration over a frozen Snapshot must
// yield exactly the same match set as the slice-backed reference path, on
// randomly generated graphs, across every Options dimension (pinning,
// blocks, striping, wildcards, limits).
package match_test

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"gfd/internal/core"
	"gfd/internal/gen"
	"gfd/internal/graph"
	"gfd/internal/match"
	"gfd/internal/pattern"
)

// matchKeys canonicalizes a match set for order-insensitive comparison.
func matchKeys(ms []core.Match) []string {
	keys := make([]string, len(ms))
	for i, m := range ms {
		keys[i] = fmt.Sprint([]graph.NodeID(m))
	}
	sort.Strings(keys)
	return keys
}

func assertSameMatches(t *testing.T, g *graph.Graph, q *pattern.Pattern, opts match.Options, ctx string) {
	t.Helper()
	legacy := matchKeys(match.All(g, q, opts))
	snap := matchKeys(match.AllSnapshot(g.Freeze(), q, opts))
	if len(legacy) != len(snap) {
		t.Fatalf("%s: legacy found %d matches, snapshot %d", ctx, len(legacy), len(snap))
	}
	for i := range legacy {
		if legacy[i] != snap[i] {
			t.Fatalf("%s: match sets differ at %d: legacy %s vs snapshot %s", ctx, i, legacy[i], snap[i])
		}
	}
}

// randomPattern draws a small connected pattern whose labels come from the
// graph (plus occasional wildcards), so it has a chance of matching.
func randomPattern(g *graph.Graph, rng *rand.Rand, nodes int, wildcards bool) *pattern.Pattern {
	labels := g.Labels()
	edgeLabels := map[string]bool{}
	g.Edges(func(e graph.Edge) bool {
		edgeLabels[e.Label] = true
		return len(edgeLabels) < 20
	})
	var els []string
	for l := range edgeLabels {
		els = append(els, l)
	}
	sort.Strings(els)
	pick := func(pool []string) string {
		if wildcards && rng.Intn(4) == 0 {
			return pattern.Wildcard
		}
		return pool[rng.Intn(len(pool))]
	}
	q := pattern.New()
	for i := 0; i < nodes; i++ {
		q.AddNode(pattern.Var(fmt.Sprintf("v%d", i)), pick(labels))
	}
	// Spanning-tree edges keep it connected; a few extras add constraints.
	for i := 1; i < nodes; i++ {
		from, to := rng.Intn(i), i
		if rng.Intn(2) == 0 {
			from, to = to, from
		}
		q.AddEdge(from, to, pick(els))
	}
	if nodes > 2 && rng.Intn(2) == 0 {
		q.AddEdge(rng.Intn(nodes), rng.Intn(nodes), pick(els))
	}
	return q
}

func diffGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"synthetic": gen.Synthetic(gen.SyntheticConfig{Nodes: 250, Edges: 700, Skew: 0.6, Seed: 11}),
		"yago2":     gen.YAGO2Like(gen.DatasetConfig{Scale: 60, Seed: 7}),
		"pokec":     gen.PokecLike(gen.DatasetConfig{Scale: 80, Seed: 19}),
	}
}

// TestGeneratorsNoDuplicateEdges enforces the graph type's documented
// invariant on every dataset generator: no duplicate (from, to, label)
// triples. The two enumeration paths agree on match multiplicity exactly
// because of it (see TestDuplicateEdgeSetSemantics). Synthetic and
// PokecLike draw endpoints independently (both deduplicated now), so the
// sweep covers many seeds, not one lucky one.
func TestGeneratorsNoDuplicateEdges(t *testing.T) {
	graphs := diffGraphs()
	graphs["dbpedia"] = gen.DBpediaLike(gen.DatasetConfig{Scale: 60, Seed: 29})
	for seed := int64(0); seed < 30; seed++ {
		graphs[fmt.Sprintf("synthetic/seed=%d", seed)] = gen.Synthetic(
			gen.SyntheticConfig{Nodes: 250, Edges: 700, Skew: 0.6, Seed: seed})
		if seed < 8 {
			graphs[fmt.Sprintf("pokec/seed=%d", seed)] = gen.PokecLike(
				gen.DatasetConfig{Scale: 60, Seed: seed})
		}
	}
	// Post-injection workloads must honor the invariant too: structural
	// noise adds edges (the Fig. 7 motifs), not just attribute noise.
	for seed := int64(0); seed < 8; seed++ {
		g := gen.YAGO2Like(gen.DatasetConfig{Scale: 80, Seed: seed})
		gen.InjectStructural(g, 10, seed+100)
		graphs[fmt.Sprintf("yago2+structural/seed=%d", seed)] = g
	}
	for name, g := range graphs {
		seen := make(map[graph.Edge]bool, g.NumEdges())
		g.Edges(func(e graph.Edge) bool {
			if seen[e] {
				t.Errorf("%s: duplicate edge %v", name, e)
			}
			seen[e] = true
			return true
		})
	}
}

// TestDuplicateEdgeSetSemantics pins down behavior on graphs that violate
// the no-duplicate-edge invariant: the snapshot matcher yields each match
// h once (set semantics), whereas the legacy path re-yields h once per
// parallel duplicate of the adjacency list it happens to iterate. Only the
// snapshot count is contractual.
func TestDuplicateEdgeSetSemantics(t *testing.T) {
	g := graph.New(3, 3)
	a := g.AddNode("x", nil)
	b := g.AddNode("y", nil)
	c := g.AddNode("z", nil)
	g.MustAddEdge(a, c, "e")
	g.MustAddEdge(a, c, "e") // duplicate triple
	g.MustAddEdge(b, c, "e")
	q := pattern.New()
	va := q.AddNode("va", "x")
	vb := q.AddNode("vb", "y")
	vc := q.AddNode("vc", "z")
	q.AddEdge(va, vc, "e")
	q.AddEdge(vb, vc, "e")
	opts := match.Options{Pin: map[int]graph.NodeID{va: a, vb: b}}
	if got := match.CountSnapshot(g.Freeze(), q, opts); got != 1 {
		t.Fatalf("snapshot yielded the duplicated match %d times, want 1", got)
	}
}

// TestConcurrentFreeze covers the read-only concurrency contract: parallel
// Freeze/Enumerate on a shared, unmutated graph (as concurrent
// sessions over one graph do) must be race-free and agree.
func TestConcurrentFreeze(t *testing.T) {
	g := gen.YAGO2Like(gen.DatasetConfig{Scale: 40, Seed: 3})
	q := starPattern()
	want := match.CountSnapshot(g.Freeze(), q, match.Options{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := match.CountSnapshot(g.Freeze(), q, match.Options{}); got != want {
				t.Errorf("concurrent count %d, want %d", got, want)
			}
		}()
	}
	wg.Wait()
}

func TestDifferentialRandomPatterns(t *testing.T) {
	for name, g := range diffGraphs() {
		rng := rand.New(rand.NewSource(99))
		for trial := 0; trial < 40; trial++ {
			n := 2 + rng.Intn(3)
			q := randomPattern(g, rng, n, trial%2 == 1)
			assertSameMatches(t, g, q, match.Options{},
				fmt.Sprintf("%s trial %d q=%s", name, trial, q))
		}
	}
}

func TestDifferentialPinned(t *testing.T) {
	for name, g := range diffGraphs() {
		rng := rand.New(rand.NewSource(5))
		for trial := 0; trial < 20; trial++ {
			q := randomPattern(g, rng, 2+rng.Intn(2), false)
			// Pin node 0 to a few of its legacy candidates (and one
			// hopeless node to exercise the empty case).
			cands := g.NodesWithLabel(q.Nodes[0].Label)
			if len(cands) == 0 {
				cands = []graph.NodeID{0}
			}
			for i := 0; i < 3 && i < len(cands); i++ {
				pin := map[int]graph.NodeID{0: cands[(i*7)%len(cands)]}
				assertSameMatches(t, g, q, match.Options{Pin: pin},
					fmt.Sprintf("%s trial %d pin=%v", name, trial, pin))
			}
		}
	}
}

func TestDifferentialBlocked(t *testing.T) {
	for name, g := range diffGraphs() {
		rng := rand.New(rand.NewSource(17))
		for trial := 0; trial < 20; trial++ {
			q := randomPattern(g, rng, 2+rng.Intn(2), trial%3 == 0)
			start := graph.NodeID(rng.Intn(g.NumNodes()))
			block := graph.NewNodeSet(g.Neighborhood(start, 2))
			assertSameMatches(t, g, q, match.Options{Block: block},
				fmt.Sprintf("%s trial %d block around %d", name, trial, start))
		}
	}
}

func TestDifferentialStriped(t *testing.T) {
	for name, g := range diffGraphs() {
		rng := rand.New(rand.NewSource(23))
		for trial := 0; trial < 12; trial++ {
			q := randomPattern(g, rng, 2+rng.Intn(2), false)
			mod := 2 + rng.Intn(3)
			node := rng.Intn(q.NumNodes())
			total := 0
			for rem := 0; rem < mod; rem++ {
				opts := match.Options{StripeNode: node, StripeMod: mod, StripeRem: rem}
				assertSameMatches(t, g, q, opts,
					fmt.Sprintf("%s trial %d stripe %d/%d", name, trial, rem, mod))
				total += match.CountSnapshot(g.Freeze(), q, opts)
			}
			// Residues must partition the unstriped match set.
			if all := match.CountSnapshot(g.Freeze(), q, match.Options{}); total != all {
				t.Fatalf("%s trial %d: stripes sum to %d, unstriped %d", name, trial, total, all)
			}
		}
	}
}

func TestDifferentialLimit(t *testing.T) {
	g := gen.YAGO2Like(gen.DatasetConfig{Scale: 40, Seed: 3})
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		q := randomPattern(g, rng, 2+rng.Intn(2), false)
		all := match.Count(g, q, match.Options{})
		for _, limit := range []int{1, 2, 5} {
			want := min(limit, all)
			if got := match.CountSnapshot(g.Freeze(), q, match.Options{Limit: limit}); got != want {
				t.Fatalf("trial %d limit %d: snapshot count %d, want %d", trial, limit, got, want)
			}
		}
	}
}

// TestDifferentialMinedRules runs the full mined-rule patterns (the
// engines' real workload, including two-component symmetric patterns)
// through both paths.
func TestDifferentialMinedRules(t *testing.T) {
	g := gen.YAGO2Like(gen.DatasetConfig{Scale: 50, Seed: 21})
	set := gen.MineGFDs(g, gen.MineConfig{NumRules: 6, PatternSize: 4, TwoCompFrac: 0.5, Seed: 9})
	for _, f := range set.Rules() {
		assertSameMatches(t, g, f.Q, match.Options{}, "rule "+f.Name)
	}
}

// TestMatcherZeroAllocSteadyState proves the acceptance criterion: after
// warm-up, a snapshot-backed enumeration performs zero allocations.
func TestMatcherZeroAllocSteadyState(t *testing.T) {
	g := gen.YAGO2Like(gen.DatasetConfig{Scale: 80, Seed: 1})
	q := pattern.New()
	f := q.AddNode("f", "flight")
	id := q.AddNode("i", "id")
	from := q.AddNode("c", "city")
	q.AddEdge(f, id, "number")
	q.AddEdge(f, from, "from")

	m := match.NewMatcher(g.Freeze())
	count := 0
	yield := func(core.Match) bool { count++; return true }
	m.Enumerate(q, match.Options{}, yield) // warm-up: compile + size buffers
	if count == 0 {
		t.Fatal("workload has no matches; allocation test is vacuous")
	}
	allocs := testing.AllocsPerRun(20, func() {
		m.Enumerate(q, match.Options{}, yield)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Enumerate allocated %.1f times per run, want 0", allocs)
	}
}
