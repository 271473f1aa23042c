// Package stats provides the statistics substrate the workload estimator
// relies on: equi-depth histograms over candidate sets (used by bPar to
// derive m-balanced range partitions, Section 6.1) and degree/skew
// statistics over graphs (used by the skew experiments of the Appendix).
package stats

import (
	"cmp"
	"slices"
	"sort"
	"strings"

	"gfd/internal/graph"
)

// Range is a half-open slice [Lo, Hi) of a sorted candidate list. Workload
// estimation messages carry ranges rather than explicit candidate lists.
type Range struct {
	Lo, Hi int
}

// Len returns the number of candidates covered by the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// EquiDepth partitions n sorted candidates into at most m ranges of nearly
// equal cardinality (an m-balanced partition in the paper's terminology).
// It returns fewer than m ranges when n < m.
func EquiDepth(n, m int) []Range {
	if n <= 0 || m <= 0 {
		return nil
	}
	if m > n {
		m = n
	}
	out := make([]Range, 0, m)
	base, rem := n/m, n%m
	lo := 0
	for i := 0; i < m; i++ {
		size := base
		if i < rem {
			size++
		}
		out = append(out, Range{Lo: lo, Hi: lo + size})
		lo += size
	}
	return out
}

// EquiDepthByValue partitions candidates into at most m ranges balanced by
// cardinality after sorting by the given attribute value (candidates
// missing the attribute sort first by ID). This mirrors the paper's
// equi-depth histogram over a selected attribute of C(µ(z)); the returned
// order is the sorted candidate list the ranges index into.
func EquiDepthByValue(g *graph.Graph, candidates []graph.NodeID, attr string, m int) ([]graph.NodeID, []Range) {
	sorted := SortByValue(g, candidates, attr)
	return sorted, EquiDepth(len(sorted), m)
}

// valueKey is a candidate decorated with its sort key, read once: the
// comparator then does no attribute lookups.
type valueKey struct {
	id  graph.NodeID
	has bool
	val string
}

func keyOf(g *graph.Graph, v graph.NodeID, attr string) valueKey {
	val, ok := g.Attr(v, attr)
	return valueKey{id: v, has: ok, val: val}
}

// compareKeys orders candidates missing the attribute first, then by
// value, then by ID — a total order, so the sorted list is a function of
// the candidate set and its values alone.
func compareKeys(a, b valueKey) int {
	switch {
	case a.has != b.has:
		if !a.has {
			return -1
		}
		return 1
	case a.val != b.val:
		return strings.Compare(a.val, b.val)
	}
	return cmp.Compare(a.id, b.id)
}

// SortByValue returns a copy of candidates in equi-depth order: by the
// given attribute's value, candidates missing it first, ties by ID.
func SortByValue(g *graph.Graph, candidates []graph.NodeID, attr string) []graph.NodeID {
	keys := make([]valueKey, len(candidates))
	for i, v := range candidates {
		keys[i] = keyOf(g, v, attr)
	}
	slices.SortFunc(keys, compareKeys)
	sorted := make([]graph.NodeID, len(keys))
	for i, k := range keys {
		sorted[i] = k.id
	}
	return sorted
}

// ResortByValue brings a list sorted by SortByValue up to date with the
// graph: moved names the nodes whose key may have changed since (they are
// taken out wherever they sit) and the new candidates (absent from
// sorted). The result equals SortByValue over the updated candidate set,
// at O(|sorted|) copying plus O(|moved| log |sorted|) attribute reads,
// instead of a full re-sort. sorted is not modified; with nothing moved
// it is returned as is.
func ResortByValue(g *graph.Graph, sorted, moved []graph.NodeID, attr string) []graph.NodeID {
	if len(moved) == 0 {
		return sorted
	}
	keys := make([]valueKey, len(moved))
	var maxID graph.NodeID
	for i, v := range moved {
		keys[i] = keyOf(g, v, attr)
		maxID = max(maxID, v)
	}
	slices.SortFunc(keys, compareKeys)
	keys = slices.CompactFunc(keys, func(a, b valueKey) bool { return a.id == b.id })
	out := make([]graph.NodeID, 0, len(sorted)+len(keys))
	// Drop the moved nodes from the old order; everything left keeps its
	// key, so the remainder is still sorted.
	isMoved := make([]bool, int(maxID)+1)
	for _, k := range keys {
		isMoved[k.id] = true
	}
	for _, v := range sorted {
		if int(v) >= len(isMoved) || !isMoved[v] {
			out = append(out, v)
		}
	}
	kept := len(out)
	// Merge the moved keys back in: each insertion point is a binary
	// search over the kept prefix, and the points never decrease, so one
	// backward pass shifts every kept node at most once.
	pos := make([]int, len(keys))
	lo := 0
	for i, k := range keys {
		lo += sort.Search(kept-lo, func(j int) bool { return compareKeys(keyOf(g, out[lo+j], attr), k) > 0 })
		pos[i] = lo
	}
	out = out[:kept+len(keys)]
	src := kept
	for i := len(keys) - 1; i >= 0; i-- {
		dst := pos[i] + i + 1
		n := src - pos[i]
		copy(out[dst:dst+n], out[pos[i]:src])
		src = pos[i]
		out[pos[i]+i] = keys[i].id
	}
	return out
}

// DegreeStats summarizes the degree distribution of a graph.
type DegreeStats struct {
	Max    int
	Mean   float64
	P50    int
	P90    int
	P99    int
	Gini   float64 // inequality of the degree distribution, 0 = uniform
	SkewDM float64 // |G_dm| / |G_dm'|: mean size of bottom-10% vs top-10% d-hop neighborhoods
}

// Degrees computes degree statistics for g. The SkewDM measure follows the
// Appendix: the ratio of the average size of the 10% smallest d-hop
// neighborhoods to the 10% largest (d fixed at 1 here for tractability;
// the generators control the true d=3 skew knob).
func Degrees(g *graph.Graph) DegreeStats {
	n := g.NumNodes()
	if n == 0 {
		return DegreeStats{}
	}
	deg := make([]int, n)
	total := 0
	for i := 0; i < n; i++ {
		deg[i] = g.Degree(graph.NodeID(i))
		total += deg[i]
	}
	sort.Ints(deg)
	pick := func(q float64) int { return deg[min(n-1, int(q*float64(n)))] }
	ds := DegreeStats{
		Max:  deg[n-1],
		Mean: float64(total) / float64(n),
		P50:  pick(0.50),
		P90:  pick(0.90),
		P99:  pick(0.99),
	}
	// Gini coefficient over degrees.
	if total > 0 {
		var cum float64
		for i, d := range deg {
			cum += float64(d) * float64(2*(i+1)-n-1)
		}
		ds.Gini = cum / (float64(n) * float64(total))
	}
	tenth := max(1, n/10)
	var small, large int
	for i := 0; i < tenth; i++ {
		small += deg[i] + 1
		large += deg[n-1-i] + 1
	}
	ds.SkewDM = float64(small) / float64(large)
	return ds
}
