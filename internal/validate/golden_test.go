package validate

import (
	"testing"
	"time"

	"gfd/internal/fragment"
	"gfd/internal/gen"
	"gfd/internal/graph"
)

// accounting is the deterministic part of a parallel engine's Result: the
// modeled communication, the unit census, and disVal's strategy split.
// Everything in it is a function of the graph, the rules and the options —
// never of timing or scheduling — so a fault-free run pins it exactly.
type accounting struct {
	BytesShipped  int64
	Messages      int64
	Comm          time.Duration
	Units         int
	SplitUnits    int
	PrefetchUnits int
	PartialUnits  int
	Completeness  Completeness
}

func accountingOf(r *Result) accounting {
	return accounting{r.BytesShipped, r.Messages, r.Comm, r.Units, r.SplitUnits,
		r.PrefetchUnits, r.PartialUnits, r.Completeness}
}

// goldenAccounting pins repVal and disVal accounting on fixed-seed workloads
// (YAGO2 ×60 and ×100, a skewed synthetic graph) for the optimized,
// NoOptimize and RandomAssign variants. A refactor of the engine bodies
// must reproduce every figure exactly; a deliberate change to the cost
// model or the planner updates the table.
var goldenAccounting = map[string]accounting{
	"rep/x60/opt":  {37664, 12, 1650528, 1178, 4, 0, 0, faultFree(1178)},
	"rep/x60/nop":  {67392, 12, 1769568, 2106, 0, 0, 0, faultFree(2106)},
	"rep/x60/ran":  {37664, 12, 1650528, 1178, 4, 0, 0, faultFree(1178)},
	"dis/x60/opt":  {575495, 1190, 3642432, 1178, 4, 1178, 0, faultFree(1178)},
	"dis/x60/nop":  {945105, 2120, 4397376, 2106, 0, 2106, 0, faultFree(2106)},
	"dis/x60/ran":  {590101, 1193, 3681664, 1178, 4, 1178, 0, faultFree(1178)},
	"rep/x100/opt": {11680, 12, 1546720, 365, 0, 0, 0, faultFree(365)},
	"rep/x100/nop": {20384, 12, 1581536, 637, 0, 0, 0, faultFree(637)},
	"rep/x100/ran": {11680, 12, 1546720, 365, 0, 0, 0, faultFree(365)},
	"dis/x100/opt": {389968, 380, 3284360, 365, 0, 365, 0, faultFree(365)},
	"dis/x100/nop": {501986, 652, 3497127, 637, 0, 637, 0, faultFree(637)},
	"dis/x100/ran": {407450, 381, 3318232, 365, 0, 365, 0, faultFree(365)},
	"rep/skew/opt": {13024, 12, 1551072, 415, 32, 0, 0, faultFree(415)},
	"rep/skew/nop": {12768, 12, 1551072, 399, 0, 0, 0, faultFree(399)},
	"rep/skew/ran": {13024, 12, 1551072, 415, 32, 0, 0, faultFree(415)},
	"dis/skew/opt": {78982, 251, 2662496, 415, 32, 178, 237, faultFree(415)},
	"dis/skew/nop": {10925156, 333, 25032728, 399, 0, 399, 0, faultFree(399)},
	"dis/skew/ran": {109041, 298, 2766816, 415, 32, 170, 245, faultFree(415)},
}

// faultFree is the census of a fault-free run over n units.
func faultFree(n int) Completeness {
	return Completeness{Units: n, Attempted: n, Succeeded: n}
}

func TestGoldenEngineAccounting(t *testing.T) {
	variants := []struct {
		name string
		opt  Options
	}{
		{"opt", Options{N: 4}},
		{"nop", Options{N: 4, NoOptimize: true}},
		{"ran", Options{N: 4, RandomAssign: true, Seed: 5}},
	}
	workloads := []struct {
		name string
		g    *graph.Graph
	}{
		{"x60", gen.YAGO2Like(gen.DatasetConfig{Scale: 60, Seed: 11})},
		{"x100", gen.YAGO2Like(gen.DatasetConfig{Scale: 100, Seed: 11})},
		// Skewed blocks are big enough for disVal's partial-match
		// shipping to win on some units.
		{"skew", gen.Synthetic(gen.SyntheticConfig{Nodes: 1500, Edges: 4500, Skew: 0.8, Seed: 41})},
	}
	for _, wl := range workloads {
		g := wl.g
		gen.Inject(g, gen.NoiseConfig{Rate: 0.05, Seed: 12})
		set := gen.MineGFDs(g, gen.MineConfig{NumRules: 8, PatternSize: 4, TwoCompFrac: 0.3, Seed: 13})
		frag := fragment.Partition(g, 4, fragment.Hash)
		for _, v := range variants {
			rep := RepVal(g, set, v.opt)
			dis := DisVal(g, frag, set, v.opt)
			for eng, res := range map[string]*Result{"rep": rep, "dis": dis} {
				key := eng + "/" + wl.name + "/" + v.name
				if got, want := accountingOf(res), goldenAccounting[key]; got != want {
					t.Errorf("%s:\n got %#v\nwant %#v", key, got, want)
				}
			}
		}
	}
}
