package workload

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"gfd/internal/graph"
	"gfd/internal/pattern"
)

// starPattern builds a hub with n satellites (radius 1 at the hub).
func starPattern(n int) *pattern.Pattern {
	p := pattern.New()
	hub := p.AddNode("x", "flight")
	for i := 0; i < n; i++ {
		s := p.AddNode(pattern.Var(string(rune('a'+i))), "sat")
		p.AddEdge(hub, s, "e")
	}
	return p
}

func twoFlightStars() *pattern.Pattern {
	p := pattern.New()
	x := p.AddNode("x", "flight")
	x1 := p.AddNode("x1", "id")
	p.AddEdge(x, x1, "number")
	y := p.AddNode("y", "flight")
	y1 := p.AddNode("y1", "id")
	p.AddEdge(y, y1, "number")
	return p
}

func flightGraph(n int) *graph.Graph {
	g := graph.New(0, 0)
	for i := 0; i < n; i++ {
		f := g.AddNode("flight", graph.Attrs{"val": string(rune('a' + i))})
		id := g.AddNode("id", graph.Attrs{"val": "FL"})
		g.MustAddEdge(f, id, "number")
	}
	return g
}

func TestComputePivotSingleComponent(t *testing.T) {
	p := starPattern(3)
	pv := ComputePivot(p)
	if pv.Arity() != 1 {
		t.Fatalf("arity = %d", pv.Arity())
	}
	if pv.Vars[0] != 0 || pv.Radii[0] != 1 {
		t.Errorf("pivot = (%d, r=%d), want hub (0, r=1)", pv.Vars[0], pv.Radii[0])
	}
	if pv.Symmetric() {
		t.Error("one component cannot be symmetric")
	}
}

func TestComputePivotTwoSymmetricComponents(t *testing.T) {
	pv := ComputePivot(twoFlightStars())
	if pv.Arity() != 2 {
		t.Fatalf("arity = %d, want 2", pv.Arity())
	}
	if !pv.Symmetric() {
		t.Error("two flight stars are isomorphic components")
	}
	// Example 9: PV(ϕ1) = ((x,1),(y,1)) — here stars of radius 1.
	if pv.Radii[0] != 1 || pv.Radii[1] != 1 {
		t.Errorf("radii = %v", pv.Radii)
	}
}

func TestComputePivotAsymmetricComponents(t *testing.T) {
	p := pattern.New()
	x := p.AddNode("x", "flight")
	x1 := p.AddNode("x1", "id")
	p.AddEdge(x, x1, "number")
	p.AddNode("y", "country") // isolated second component
	pv := ComputePivot(p)
	if pv.Symmetric() {
		t.Error("different components must not be symmetric")
	}
	if pv.Radii[1] != 0 {
		t.Errorf("isolated node radius = %d, want 0", pv.Radii[1])
	}
}

func TestArbitraryPivot(t *testing.T) {
	// Path a -> b -> c: min-radius pivot is b (r=1); arbitrary picks a (r=2).
	p := pattern.New()
	a := p.AddNode("a", "n")
	b := p.AddNode("b", "n")
	c := p.AddNode("c", "n")
	p.AddEdge(a, b, "e")
	p.AddEdge(b, c, "e")
	if pv := ComputePivot(p); pv.Vars[0] != b || pv.Radii[0] != 1 {
		t.Errorf("min-radius pivot = %d r=%d", pv.Vars[0], pv.Radii[0])
	}
	if pv := ArbitraryPivot(p); pv.Vars[0] != a || pv.Radii[0] != 2 {
		t.Errorf("arbitrary pivot = %d r=%d", pv.Vars[0], pv.Radii[0])
	}
}

func TestCandidates(t *testing.T) {
	g := flightGraph(3)
	pv := ComputePivot(starPattern(1))
	cands := pv.Candidates(g, 0)
	if len(cands) != 3 {
		t.Errorf("flight candidates = %d", len(cands))
	}
	// Wildcard pivot: all nodes.
	wq := pattern.New()
	wq.AddNode("x", pattern.Wildcard)
	if got := ComputePivot(wq).Candidates(g, 0); len(got) != g.NumNodes() {
		t.Errorf("wildcard candidates = %d, want %d", len(got), g.NumNodes())
	}
}

func TestBuildUnitsSingleComponent(t *testing.T) {
	g := flightGraph(4)
	q := pattern.New()
	x := q.AddNode("x", "flight")
	x1 := q.AddNode("x1", "id")
	q.AddEdge(x, x1, "number")
	units := BuildUnits(g, ComputePivot(q), BuildOptions{})
	if len(units) != 4 {
		t.Fatalf("units = %d, want 4 (one per flight)", len(units))
	}
	// Each block is flight + id + edge = 3.
	for _, u := range units {
		if u.BlockSize != 3 {
			t.Errorf("block size = %d, want 3", u.BlockSize)
		}
		if u.Weight() != u.BlockSize {
			t.Errorf("weight = %d", u.Weight())
		}
	}
}

func TestBuildUnitsTwoComponentsDedup(t *testing.T) {
	g := flightGraph(4)
	q := twoFlightStars()
	pv := ComputePivot(q)
	all := BuildUnits(g, pv, BuildOptions{})
	if len(all) != 12 { // 4*3 ordered distinct pairs
		t.Fatalf("undeduped units = %d, want 12", len(all))
	}
	dedup := BuildUnits(g, pv, BuildOptions{DedupSymmetric: true})
	if len(dedup) != 6 { // unordered pairs
		t.Fatalf("deduped units = %d, want 6", len(dedup))
	}
	for _, u := range dedup {
		if u.Candidates[0] >= u.Candidates[1] {
			t.Errorf("dedup order violated: %v", u.Candidates)
		}
	}
}

func TestBuildUnitsMaxCap(t *testing.T) {
	g := flightGraph(10)
	q := twoFlightStars()
	units := BuildUnits(g, ComputePivot(q), BuildOptions{MaxUnitsPerRule: 7})
	if len(units) != 7 {
		t.Errorf("capped units = %d, want 7", len(units))
	}
}

func TestUnitBlock(t *testing.T) {
	g := flightGraph(2)
	q := pattern.New()
	x := q.AddNode("x", "flight")
	x1 := q.AddNode("x1", "id")
	q.AddEdge(x, x1, "number")
	units := BuildUnits(g, ComputePivot(q), BuildOptions{})
	block := units[0].Block(g)
	if block.Len() != 2 {
		t.Errorf("block nodes = %d, want flight + id", block.Len())
	}
}

func TestSizeCache(t *testing.T) {
	g := flightGraph(2)
	sc := NewSizeCache()
	a := sc.Get(g, 0, 1)
	b := sc.Get(g, 0, 1)
	if a != b || a != g.NeighborhoodSize(0, 1) {
		t.Errorf("cache results differ: %d %d", a, b)
	}
	if sc.Get(g, 0, 0) != 1 {
		t.Error("radius is part of the cache key")
	}
}

func TestTotalWeight(t *testing.T) {
	units := []Unit{{BlockSize: 3}, {BlockSize: 7}}
	if TotalWeight(units) != 10 {
		t.Errorf("TotalWeight = %d", TotalWeight(units))
	}
}

// --- Balancing ------------------------------------------------------------

func TestBalanceLPTExample12(t *testing.T) {
	// The paper's Example 12: 9 units sized {22,22,26,26,30,30,24,28,28}
	// over 3 workers must balance to loads near 236/3 ≈ 79.
	weights := []int{22, 22, 26, 26, 30, 30, 24, 28, 28}
	a := BalanceLPT(weights, 3)
	span := a.Makespan(weights)
	if span > 82 {
		t.Errorf("LPT makespan = %d, want ≤ 82 (paper's partition reaches 82)", span)
	}
	// All units assigned exactly once.
	seen := make(map[int]bool)
	for _, w := range a {
		for _, u := range w {
			if seen[u] {
				t.Fatalf("unit %d assigned twice", u)
			}
			seen[u] = true
		}
	}
	if len(seen) != len(weights) {
		t.Fatalf("assigned %d of %d units", len(seen), len(weights))
	}
}

func TestBalanceLPTApproximationProperty(t *testing.T) {
	// LPT is a 2-approximation: makespan ≤ 2 · OPT and OPT ≥ total/n.
	f := func(raw []uint8, nRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		n := int(nRaw%8) + 1
		weights := make([]int, len(raw))
		total, max := 0, 0
		for i, r := range raw {
			weights[i] = int(r) + 1
			total += weights[i]
			if weights[i] > max {
				max = weights[i]
			}
		}
		lower := total / n
		if max > lower {
			lower = max
		}
		span := int(BalanceLPT(weights, n).Makespan(weights))
		return span <= 2*lower
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBalanceRandomAssignsEverything(t *testing.T) {
	weights := make([]int, 50)
	for i := range weights {
		weights[i] = i + 1
	}
	a := BalanceRandom(weights, 4, 42)
	count := 0
	for _, w := range a {
		count += len(w)
	}
	if count != 50 {
		t.Errorf("random assigned %d of 50", count)
	}
	// Deterministic for a seed.
	b := BalanceRandom(weights, 4, 42)
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Error("random assignment must be deterministic per seed")
		}
	}
}

func TestBalanceBiCriteriaPrefersLocalWorker(t *testing.T) {
	// Two units, two workers; unit 0 is free on worker 1 but costly on 0.
	weights := []int{10, 10}
	cc := func(unit, worker int) int64 {
		if unit == 0 && worker == 0 {
			return 1 << 20
		}
		if unit == 1 && worker == 1 {
			return 1 << 20
		}
		return 0
	}
	a := BalanceBiCriteria(weights, 2, cc, 1.0)
	if len(a[0]) != 1 || len(a[1]) != 1 {
		t.Fatalf("assignment = %v", a)
	}
	if a[1][0] != 0 || a[0][0] != 1 {
		t.Errorf("communication cost ignored: %v", a)
	}
}

func TestBalanceBiCriteriaZeroCommEqualsLPT(t *testing.T) {
	weights := []int{22, 22, 26, 26, 30, 30, 24, 28, 28}
	free := func(int, int) int64 { return 0 }
	a := BalanceBiCriteria(weights, 3, free, 1.0)
	b := BalanceLPT(weights, 3)
	if a.Makespan(weights) != b.Makespan(weights) {
		t.Errorf("zero-cost bi-criteria should match LPT makespan: %d vs %d",
			a.Makespan(weights), b.Makespan(weights))
	}
}

// TestLPTOrderMatchesComparator pins the radix LPT order to a comparator
// sort — descending weight, ties by ascending index — over many ties,
// single-byte and multi-byte spreads, negative weights, and a spread too
// wide to pack.
func TestLPTOrderMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	spreads := []int{1, 3, 200, 70000, 1 << 40}
	for trial := 0; trial < 300; trial++ {
		weights := make([]int, rng.Intn(200))
		spread := spreads[trial%len(spreads)]
		for i := range weights {
			weights[i] = rng.Intn(spread) - spread/3
		}
		want := make([]int, len(weights))
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(a, b int) bool { return weights[want[a]] > weights[want[b]] })
		if got := lptOrder(weights); !slices.Equal(got, want) {
			t.Fatalf("trial %d: lptOrder %v, comparator %v (weights %v)", trial, got, want, weights)
		}
	}
}
