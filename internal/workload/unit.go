package workload

import (
	"fmt"

	"gfd/internal/graph"
)

// Unit is a work unit w = ⟨v̄_z, |G_z̄|⟩: a pivot candidate vector (one
// graph node per pattern component) plus the size of its data block — the
// union of the c_i-hop neighborhoods of the candidates. Validating a GFD
// reduces to enumerating matches inside each unit's data block with the
// pivots pinned.
type Unit struct {
	Pivot      *Pivot
	Candidates []graph.NodeID // v̄_z, aligned with Pivot.Vars
	BlockSize  int            // |G_z̄| = Σ_i |G_z̄[z_i]|, the unit's weight
}

func (u Unit) String() string {
	return fmt.Sprintf("unit(v̄=%v, |G|=%d)", u.Candidates, u.BlockSize)
}

// Weight returns the unit's load estimate used by the balancers. The paper
// weighs a unit by |G_z̄|^|Σ|; raising to the rule-set size overflows for
// any realistic block, so the implementation uses |G_z̄| directly — the
// ordering (and hence the greedy partition) is identical because the map
// x ↦ x^k is monotone.
func (u Unit) Weight() int { return u.BlockSize }

// BuildOptions controls unit generation.
type BuildOptions struct {
	// DedupSymmetric drops mirrored candidate pairs for patterns with two
	// isomorphic components (Example 10's duplicate removal). Disabled in
	// the *nop variants.
	DedupSymmetric bool
	// MaxUnitsPerRule caps the number of emitted units per rule as a
	// safety valve against cross-product explosion; 0 means unlimited.
	MaxUnitsPerRule int
}

// SizeCache memoizes |G_z̄[z]| block-part sizes per (radius, node); both
// engines share it across rules so each neighborhood is measured once.
type SizeCache struct {
	byRadius map[int]map[graph.NodeID]int
}

// NewSizeCache returns an empty cache.
func NewSizeCache() *SizeCache {
	return &SizeCache{byRadius: make(map[int]map[graph.NodeID]int)}
}

// Get returns the cached c-hop neighborhood size of v, computing it on
// demand. Not safe for concurrent use; workers keep private caches.
func (sc *SizeCache) Get(g *graph.Graph, v graph.NodeID, c int) int {
	m := sc.byRadius[c]
	if m == nil {
		m = make(map[graph.NodeID]int)
		sc.byRadius[c] = m
	}
	if s, ok := m[v]; ok {
		return s
	}
	s := g.NeighborhoodSize(v, c)
	m[v] = s
	return s
}

// BuildUnits enumerates the workload W(ϕ, G): all work units of the
// pivot's pattern over g. Neighborhood sizes are computed once per
// candidate and summed per unit. Supports patterns with 1 or 2 components
// directly and arbitrary k by recursive cross product (k > 2 is rare; the
// paper notes k ≤ 2 in practice).
func BuildUnits(g *graph.Graph, pivot *Pivot, opts BuildOptions) []Unit {
	k := pivot.Arity()
	cands := make([][]graph.NodeID, k)
	for i := 0; i < k; i++ {
		cands[i] = pivot.Candidates(g, i)
	}
	return BuildUnitsFrom(g, pivot, cands, NewSizeCache(), opts)
}

// BuildUnitsFrom is BuildUnits over externally supplied candidate lists
// (e.g. one equi-depth range per worker during parallel estimation) and a
// shared size cache.
func BuildUnitsFrom(g *graph.Graph, pivot *Pivot, cands [][]graph.NodeID, cache *SizeCache, opts BuildOptions) []Unit {
	return BuildUnitsSized(pivot, cands, func(v graph.NodeID, c int) int { return cache.Get(g, v, c) }, opts)
}

// BuildUnitsSized is the allocation core of unit generation: block-part
// sizes come from the supplied lookup (typically precomputed in a separate
// parallel phase so each neighborhood is measured exactly once). The
// units' candidate vectors are cut from one backing array.
func BuildUnitsSized(pivot *Pivot, cands [][]graph.NodeID, sizeOf func(graph.NodeID, int) int, opts BuildOptions) []Unit {
	var units []Unit
	var back []graph.NodeID
	EachUnit(pivot, cands, sizeOf, opts.DedupSymmetric, func(vec []graph.NodeID, size int) bool {
		back = append(back, vec...)
		units = append(units, Unit{Pivot: pivot, BlockSize: size})
		return opts.MaxUnitsPerRule == 0 || len(units) < opts.MaxUnitsPerRule
	})
	k := pivot.Arity()
	for i := range units {
		units[i].Candidates = back[i*k : (i+1)*k : (i+1)*k]
	}
	return units
}

// EachUnit enumerates, in BuildUnitsSized's order, the candidate vectors
// of the units over cands together with their block sizes |G_z̄|, without
// materializing units. The vector passed to fn is reused across calls;
// enumeration stops when fn returns false. dedupSymmetric drops mirrored
// pairs of a symmetric pivot (BuildOptions.DedupSymmetric).
func EachUnit(pivot *Pivot, cands [][]graph.NodeID, sizeOf func(graph.NodeID, int) int, dedupSymmetric bool, fn func(vec []graph.NodeID, size int) bool) {
	vec := make([]graph.NodeID, pivot.Arity())
	if len(cands) == 1 {
		// One component: a unit per candidate, no cross product.
		for _, v := range cands[0] {
			vec[0] = v
			if !fn(vec, sizeOf(v, pivot.Radii[0])) {
				return
			}
		}
		return
	}
	crossProduct(cands, vec, 0, dedupSymmetric && pivot.Symmetric(), func(vec []graph.NodeID) bool {
		total := 0
		for i, v := range vec {
			total += sizeOf(v, pivot.Radii[i])
		}
		return fn(vec, total)
	})
}

// crossProduct enumerates candidate vectors with pairwise-distinct entries
// (pivots are images of distinct pattern nodes under an injective match).
// When symmetric is set (two isomorphic components), only ordered pairs
// v[0] < v[1] are emitted.
func crossProduct(cands [][]graph.NodeID, vec []graph.NodeID, depth int, symmetric bool, emit func([]graph.NodeID) bool) bool {
	if depth == len(cands) {
		return emit(vec)
	}
	for _, v := range cands[depth] {
		if symmetric && depth == 1 && v <= vec[0] {
			continue
		}
		dup := false
		for i := 0; i < depth; i++ {
			if vec[i] == v {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		vec[depth] = v
		if !crossProduct(cands, vec, depth+1, symmetric, emit) {
			return false
		}
	}
	return true
}

// Block materializes the unit's data block G_z̄ as a node set: the union of
// the c_i-hop neighborhoods of the pivot candidates.
func (u Unit) Block(g *graph.Graph) graph.NodeSet {
	set := make(graph.NodeSet)
	for i, v := range u.Candidates {
		set.AddAll(g.Neighborhood(v, u.Pivot.Radii[i]))
	}
	return set
}

// BlockIn is Block over a compiled topology: the CSR traversal replaces
// the hash-set BFS on the engines' hot path.
func (u Unit) BlockIn(t graph.Topology) graph.NodeSet {
	set := make(graph.NodeSet)
	for i, v := range u.Candidates {
		set.AddAll(t.Neighborhood(v, u.Pivot.Radii[i]))
	}
	return set
}

// EachVector enumerates candidate vectors with pairwise-distinct entries
// over the supplied per-component candidate lists, without computing
// block sizes — what the incremental detector's initial sweep needs.
// Enumeration stops early when fn returns false. The vector passed to fn
// is reused across calls.
func EachVector(cands [][]graph.NodeID, fn func([]graph.NodeID) bool) {
	if len(cands) == 0 {
		return
	}
	vec := make([]graph.NodeID, len(cands))
	crossProduct(cands, vec, 0, false, fn)
}

// TotalWeight sums unit weights; this approximates the sequential cost
// t(|Σ|, |G|) the parallel bounds are stated against.
func TotalWeight(units []Unit) int64 {
	var total int64
	for _, u := range units {
		total += int64(u.Weight())
	}
	return total
}
