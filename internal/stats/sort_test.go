package stats

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"gfd/internal/graph"
)

// randomValueGraph builds n nodes where about a third miss "val" and the
// rest draw from a handful of values, so ties are the common case.
func randomValueGraph(rng *rand.Rand, n int) (*graph.Graph, []graph.NodeID) {
	g := graph.New(n, 0)
	ids := make([]graph.NodeID, n)
	for i := range ids {
		var attrs graph.Attrs
		if rng.Intn(3) > 0 {
			attrs = graph.Attrs{"val": fmt.Sprint(rng.Intn(5))}
		}
		ids[i] = g.AddNode("n", attrs)
	}
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return g, ids
}

// sortByComparator is the comparator EquiDepthByValue used before keys
// were decorated: two attribute lookups per comparison.
func sortByComparator(g *graph.Graph, candidates []graph.NodeID, attr string) []graph.NodeID {
	sorted := append([]graph.NodeID(nil), candidates...)
	sort.Slice(sorted, func(i, j int) bool {
		vi, oki := g.Attr(sorted[i], attr)
		vj, okj := g.Attr(sorted[j], attr)
		switch {
		case oki != okj:
			return !oki
		case vi != vj:
			return vi < vj
		default:
			return sorted[i] < sorted[j]
		}
	})
	return sorted
}

// TestSortByValueMatchesComparator pins the decorated sort to the old
// comparator's order on random graphs with missing values and ties.
func TestSortByValueMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		g, ids := randomValueGraph(rng, rng.Intn(60))
		want := sortByComparator(g, ids, "val")
		got, _ := EquiDepthByValue(g, ids, "val", 4)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: decorated sort %v, comparator %v", trial, got, want)
		}
	}
}

// TestResortByValueMatchesFullSort applies random attribute writes and
// node insertions to a sorted list and checks the patched order against a
// full re-sort of the updated candidate set.
func TestResortByValueMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		g, ids := randomValueGraph(rng, rng.Intn(40))
		sorted := SortByValue(g, ids, "val")
		var moved []graph.NodeID
		for i := rng.Intn(6); i > 0 && len(ids) > 0; i-- {
			v := ids[rng.Intn(len(ids))]
			g.SetAttr(v, "val", fmt.Sprint(rng.Intn(5)))
			moved = append(moved, v) // repeats are allowed
		}
		for i := rng.Intn(4); i > 0; i-- {
			var attrs graph.Attrs
			if rng.Intn(2) == 0 {
				attrs = graph.Attrs{"val": fmt.Sprint(rng.Intn(5))}
			}
			v := g.AddNode("n", attrs)
			ids = append(ids, v)
			moved = append(moved, v)
		}
		before := slices.Clone(sorted)
		got := ResortByValue(g, sorted, moved, "val")
		if want := SortByValue(g, ids, "val"); !slices.Equal(got, want) {
			t.Fatalf("trial %d: patched %v, full sort %v (moved %v)", trial, got, want, moved)
		}
		if !slices.Equal(sorted, before) {
			t.Fatalf("trial %d: ResortByValue modified its input", trial)
		}
	}
}
