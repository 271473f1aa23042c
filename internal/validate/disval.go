package validate

import (
	"context"

	"gfd/internal/cluster"
	"gfd/internal/core"
	"gfd/internal/fragment"
	"gfd/internal/graph"
	"gfd/internal/match"
	"gfd/internal/pattern"
)

// DisVal is the parallel error-detection algorithm for fragmented graphs
// (Section 6.2 / Theorem 11). Each fragment F_i resides at worker i; the
// coordinator assembles work units from per-fragment partial units and
// computes a bi-criteria assignment that balances load while minimizing
// the data shipped to assemble each unit's block. Local detection then
// chooses per unit between prefetching the missing block parts and
// shipping partial matches, whichever is estimated cheaper.
//
// Variants: Options.RandomAssign yields disran, Options.NoOptimize yields
// disnop (no grouping/dedup/splitting, always prefetch).
//
// It builds a one-shot bundle per call; callers validating the same graph
// repeatedly should hold a session (gfd.NewSession) and Detect with
// EngineFragmented instead.
func DisVal(g *graph.Graph, frag *fragment.Fragmentation, set *core.Set, opt Options) *Result {
	res, _ := DisValB(context.Background(), NewBundle(g, set), frag, opt, nil)
	return res
}

// DisValB is disVal over a prepared bundle and a fragmentation, with the
// same contract as RepValB — the two share one engine body (parVal),
// including the fault-tolerant detection scheduler (runtime.go): a retried
// or reassigned unit re-runs its prefetch / partial-match exchange on the
// new worker, so recovery pays its shipping like the paper's model
// demands.
func DisValB(ctx context.Context, b *Bundle, frag *fragment.Fragmentation, opt Options, sink Sink) (*Result, error) {
	return parVal(ctx, b, frag, opt, sink)
}

// blockExchange is dlocalVio's per-attempt block shipment: before a unit
// runs on worker w, the parts of its data block w does not own arrive
// either as a prefetch of the raw block or as partial matches, whichever
// is estimated cheaper. It runs as the scheduler's prep hook, so a unit
// reassigned after a worker death (or retried after a deadline miss)
// re-ships its block to the worker that actually runs it — recovery is
// charged, not free.
type blockExchange struct {
	b    *Bundle
	frag *fragment.Fragmentation
	run  *detectRun
	// Per-worker strategy counts; worker w is their only writer.
	prefetched, partials []int
}

func newBlockExchange(b *Bundle, frag *fragment.Fragmentation, run *detectRun) *blockExchange {
	return &blockExchange{b: b, frag: frag, run: run, prefetched: make([]int, frag.N), partials: make([]int, frag.N)}
}

func (x *blockExchange) prep(w, ui int) {
	u := x.run.units[ui]
	shipped := u.shipBytes[w]
	partial := false
	// Weighing partial-match shipping against prefetching costs a scan of
	// the block; it is only worth considering when the prefetch is
	// substantial.
	if !x.run.opt.NoOptimize && shipped > minPartialConsideration {
		grp := x.run.groups[u.group]
		if pb := partialMatchBytes(x.b.g, x.b.topo, x.frag, grp, u, w, shipped); pb < shipped {
			shipped = pb
			partial = true
		}
	}
	if shipped > 0 {
		// Data arrives from each fragment owning a missing part; charge it
		// as one bulk transfer into w.
		x.run.cl.Ship(owningPeer(x.frag, u, w), w, shipped)
	}
	if partial {
		x.partials[w]++
	} else {
		x.prefetched[w]++
	}
}

// commCostWeight converts shipped bytes into load-comparable units for the
// bi-criteria greedy (c_s in the paper's CC(w) = c_s·|M|). Block sizes are
// |V|+|E| counts while shipping is in bytes; one block element is worth
// roughly a few tens of bytes on the wire.
const commCostWeight = 1.0 / 32

// chargeCandidateMessages accounts the M_i estimation messages of disPar:
// every fragment reports its local pivot candidates (candidate id,
// block-part size, border nodes) to the coordinator as one batched message
// per fragment, sized per candidate descriptor. Charges go through ship so
// the estimation cache can record and replay them.
func chargeCandidateMessages(g *graph.Graph, ship func(from, to int, bytes int64), frag *fragment.Fragmentation, groups []*ruleGroup) {
	type key struct {
		node  graph.NodeID
		owner int
	}
	seen := make(map[key]struct{})
	perOwner := make([]int64, frag.N)
	for _, grp := range groups {
		for i := 0; i < grp.pivot.Arity(); i++ {
			for _, c := range grp.pivot.Candidates(g, i) {
				k := key{c, frag.OwnerOf(c)}
				if _, dup := seen[k]; dup {
					continue
				}
				seen[k] = struct{}{}
				perOwner[k.owner] += candidateInfoBytes + int64(frag.N)*8
			}
		}
	}
	for owner, bytes := range perOwner {
		if bytes > 0 {
			ship(owner, cluster.Coordinator, bytes)
		}
	}
}

// attachShipCosts computes, for every worker, the bytes that must be
// shipped to it to assemble the unit's data block (its non-local part).
func attachShipCosts(g *graph.Graph, topo graph.Topology, frag *fragment.Fragmentation, u *workUnit) {
	block := u.BlockIn(topo).Sorted()
	u.shipBytes = make([]int64, frag.N)
	var total int64
	perOwner := make([]int64, frag.N)
	for _, v := range block {
		b := fragment.NodeBytes(g, v)
		perOwner[frag.OwnerOf(v)] += b
		total += b
	}
	for w := 0; w < frag.N; w++ {
		u.shipBytes[w] = total - perOwner[w]
	}
	u.totalBytes = total
}

// partialMatchBytes estimates the cost of the partial-match shipping
// strategy: the graph-simulation relation of the group pattern restricted
// to the unit's block over-approximates the partial matches that would be
// exchanged; each pair costs a fixed descriptor. Only pairs on nodes not
// owned by worker w need shipping.
//
// The simulation fixpoint is only worth computing when it could win: a
// label-compatibility count (an upper bound on the simulation size, O(1)
// per block node) prefilters units whose partial matches could not beat
// prefetching, keeping the strategy selector itself cheap — the paper's
// dlocalVio likewise estimates before exchanging.
func partialMatchBytes(g *graph.Graph, topo graph.Topology, frag *fragment.Fragmentation, grp *ruleGroup, u workUnit, w int, prefetchBytes int64) int64 {
	block := u.BlockIn(topo)
	var upper int64
	for v := range block {
		if frag.OwnerOf(v) == w {
			continue
		}
		l := g.Label(v)
		for _, n := range grp.q.Nodes {
			if pattern.LabelMatches(n.Label, l) {
				upper += partialDescriptorBytes
			}
		}
	}
	if upper >= prefetchBytes {
		return upper // cannot win; skip the fixpoint
	}
	sim := match.Simulate(g, grp.q, block)
	var pairs int64
	for _, s := range sim {
		for v := range s {
			if frag.OwnerOf(v) != w {
				pairs++
			}
		}
	}
	return pairs * partialDescriptorBytes
}

// partialDescriptorBytes is the wire size of one (pattern node, graph
// node) partial-match descriptor.
const partialDescriptorBytes = 24

// minPartialConsideration is the prefetch size (bytes) below which the
// partial-match alternative is not even evaluated.
const minPartialConsideration = 4096

// owningPeer picks the peer fragment contributing the largest missing
// block part, as the representative source of the bulk transfer.
func owningPeer(frag *fragment.Fragmentation, u workUnit, w int) int {
	// The exact source split does not change totals; attribute to the
	// fragment owning the first candidate not local to w, else worker 0.
	for _, c := range u.Candidates {
		if o := frag.OwnerOf(c); o != w {
			return o
		}
	}
	if w == 0 && frag.N > 1 {
		return 1
	}
	if w != 0 {
		return 0
	}
	return 0
}
