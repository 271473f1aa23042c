package validate

import (
	"maps"
	"slices"
	"time"

	"gfd/internal/cluster"
	"gfd/internal/fragment"
	"gfd/internal/graph"
	"gfd/internal/pattern"
	"gfd/internal/stats"
	"gfd/internal/workload"
)

// This file is the cached workload-estimation layer: bPar / disPar's
// candidate listing, equi-depth partitioning, one c-hop traversal per
// pivot candidate, and unit assembly, followed by the split and the
// balanced assignment. The Bundle memoizes its product at three levels:
//
//   - per bundle, the assembled unit set per (grouping variant, n,
//     histogram m) and the post-split plan per option variant: warm
//     rounds (same bundle, same options) perform no estimation pass; the
//     unit set, the modeled estimation span and the phase's comm charges
//     are replayed (EstimationStats is the probe, mirroring
//     Graph.SnapshotBuilds);
//   - across graph versions, the inputs every plan is rebuilt from: the
//     value-sorted candidate list per pivot label and the block sizes, in
//     a dense per-radius table that keeps each measurement's traversal
//     cost. A bundle superseding its predecessor over the same live
//     overlay (Session.Apply, detector Apply, a compaction of it) patches
//     both by the delta the overlay's touch logs record: nodes whose
//     attributes changed and new class members are re-placed in the sorted
//     lists (stats.ResortByValue), and a (v, r) size is dropped only when
//     a topology-touched node lies within r hops of v (distWithin). Units,
//     split and assignment are then rebuilt by linear, allocation-light
//     passes, so the post-Apply plan costs O(|candidates|) copying plus
//     O(delta) attribute reads and traversals, not a re-sort and a
//     re-measure of every unit;
//   - when the delta is unknown (a mutation that bypassed the overlay, a
//     first prepare), the plan is built cold, and the next Apply patches
//     again.
//
// A patched plan is the plan a cold bundle builds over the same topology:
// the same unit sequence, split, weights and assignment
// (TestPatchedPlanMatchesCold). EstimateSpan is reconstructed from the
// recorded per-traversal costs over the same round-robin schedule the live
// phase uses, plus the measured unit assembly, so the modeled n-worker
// spans the figures plot are unchanged by caching.

// sortAttr is the attribute pivot candidate lists are equi-depth sorted by.
const sortAttr = "val"

// sizeReq identifies one block-size measurement |G_z̄[v]|.
type sizeReq struct {
	node   graph.NodeID
	radius int
}

// sizeVal is one cached measurement plus its traversal cost; the cost
// replays faithful modeled spans without re-traversing. size 0 marks an
// unmeasured cell: every block holds at least its own node.
type sizeVal struct {
	size int
	cost time.Duration
}

// sizePageBits sets the size table's page: copy-on-write granularity.
const sizePageBits = 9

type sizePage [1 << sizePageBits]sizeVal

// sizeTable is the dense block-size cache, indexed by radius, then by node
// in pages. It is immutable once published; sizeWriter derives an updated
// table that shares every page it did not write.
type sizeTable [][]*sizePage

func (t sizeTable) get(v graph.NodeID, r int) sizeVal {
	if r < len(t) {
		if p := int(v) >> sizePageBits; p < len(t[r]) && t[r][p] != nil {
			return t[r][p][int(v)&(1<<sizePageBits-1)]
		}
	}
	return sizeVal{}
}

// sizeWriter builds a new table from a published one, copying a row's page
// index and a page on their first write only.
type sizeWriter struct {
	t     sizeTable
	owned []bool // rows whose page index is private
	pages map[*sizePage]bool
}

func newSizeWriter(t sizeTable) *sizeWriter {
	return &sizeWriter{t: slices.Clone(t), owned: make([]bool, len(t)), pages: make(map[*sizePage]bool)}
}

func (w *sizeWriter) set(v graph.NodeID, r int, val sizeVal) {
	for len(w.t) <= r {
		w.t = append(w.t, nil)
		w.owned = append(w.owned, true)
	}
	if !w.owned[r] {
		w.t[r] = slices.Clone(w.t[r])
		w.owned[r] = true
	}
	p := int(v) >> sizePageBits
	if p >= len(w.t[r]) {
		w.t[r] = append(w.t[r], make([]*sizePage, p+1-len(w.t[r]))...)
	}
	pg := w.t[r][p]
	switch {
	case pg == nil:
		pg = new(sizePage)
	case !w.pages[pg]:
		cp := *pg
		pg = &cp
	}
	w.pages[pg] = true
	w.t[r][p] = pg
	pg[int(v)&(1<<sizePageBits-1)] = val
}

// shipRec is one recorded estimation-phase shipment, replayed into the
// per-call cluster on warm rounds so comm accounting stays identical.
type shipRec struct {
	from, to int
	bytes    int64
}

// estKey identifies one cached estimation variant: the grouping variant
// plus the option fields the assembled unit set depends on.
type estKey struct {
	gk         groupKey
	n          int
	histogramM int
}

// estEntry is one memoized estimation phase: the pre-split unit set as the
// workers assembled it — per-worker chunks whose concatenation is the
// canonical order (read-only; the split pass flattens them into the
// plan) — the modeled span, and the phase's comm charges.
type estEntry struct {
	units [][]workUnit
	span  time.Duration
	ships []shipRec
}

// fragEstKey adds the fragmentation identity: ship costs and candidate
// messages are per-partition artifacts.
type fragEstKey struct {
	ek   estKey
	frag *fragment.Fragmentation
}

// fragEstEntry is the fragmented-engine layer over a base estimation:
// units with per-worker ship costs attached, plus the candidate-report
// charges of disPar's first exchange.
type fragEstEntry struct {
	units     [][]workUnit
	span      time.Duration
	candShips []shipRec
	estShips  []shipRec
}

// planKey identifies one memoized detection plan: the estimation variant
// plus every option field the split and the balanced assignment depend
// on. seed is folded in only for randomized assignment — deterministic
// plans are shared across seeds.
type planKey struct {
	ek        estKey
	frag      *fragment.Fragmentation // nil for the replicated engine
	threshold int
	noOpt     bool
	random    bool
	seed      int64
}

// planEntry is one memoized post-split unit set with its balanced
// assignment and the derived accounting the engines report. Units and
// assignment are shared read-only across rounds: the detection runtime
// copies the assignment's top-level slice and reads unit descriptors by
// value, so no round mutates the plan.
type planEntry struct {
	units       []workUnit
	split       int
	totalWeight int64
	makespan    int64
	assign      workload.Assignment
}

// estState is the Bundle's estimation cache, guarded by Bundle.mu except
// for the traversals themselves (workers measure without the lock and
// publish results under it). lists and sizes are copy-on-write: a
// published value is never modified, so a successor bundle or a
// still-running round may hold it.
type estState struct {
	lists       map[string][]graph.NodeID // pivot label -> candidates in equi-depth order
	sizes       sizeTable
	from        *estDelta // predecessor state not yet brought up to date
	inherited   bool      // lists and sizes were patched from a predecessor
	entries     map[estKey]*estEntry
	fragEntries map[fragEstKey]*fragEstEntry
	plans       map[planKey]*planEntry

	builds   int // full estimation passes (unit-set cache misses)
	patched  int // builds served from a predecessor's patched lists and sizes
	reuses   int // Detect rounds served without an estimation pass
	measured int // block-size traversals actually run
}

// estDelta is an inherited estimation state plus the updates since it was
// current: resolved lazily, by the bundle's first estimation pass.
type estDelta struct {
	lists    map[string][]graph.NodeID
	sizes    sizeTable
	numNodes int            // |V| the state reflects; higher IDs are new nodes
	touched  []graph.NodeID // topology touches since (overlay touch log)
	attrs    []graph.NodeID // attribute writes since (overlay attribute log)
}

// EstStats are the estimation-cache probe counters, cumulative across the
// bundles a Prepared re-derives (they survive Session.Apply rebuilds the
// way Graph.SnapshotBuilds survives Freeze cache hits). The regression
// tests assert warm rounds leave Builds and Measured unchanged, that an
// Apply delta re-measures exactly the touched blocks, and that post-Apply
// builds are Patched rather than cold.
type EstStats struct {
	Builds   int
	Patched  int // of Builds: re-sorted nothing, inherited every size not touched
	Reused   int
	Measured int
}

// EstimationStats returns the bundle's estimation-cache counters.
func (b *Bundle) EstimationStats() EstStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return EstStats{Builds: b.est.builds, Patched: b.est.patched, Reused: b.est.reuses, Measured: b.est.measured}
}

func replayShips(cl *cluster.Cluster, ships []shipRec) {
	for _, s := range ships {
		cl.Ship(s.from, s.to, s.bytes)
	}
}

// estimateFor returns the pre-split unit set and modeled estimation span
// for the given grouping variant, serving warm rounds entirely from the
// cache (comm charges replayed, zero traversals). The returned chunks are
// shared and read-only; applySplit copies before mutating.
//
// Estimation is not unit-granular, so a panic here (recovered by the
// cluster into a *WorkerError) is not retried: the error propagates and
// the failed pass is not cached.
func (b *Bundle) estimateFor(cl *cluster.Cluster, groups []*ruleGroup, gk groupKey, opt Options) ([][]workUnit, time.Duration, error) {
	e, err := b.baseEstimate(cl, groups, gk, opt)
	if err != nil {
		return nil, 0, err
	}
	return e.units, e.span, nil
}

func (b *Bundle) baseEstimate(cl *cluster.Cluster, groups []*ruleGroup, gk groupKey, opt Options) (*estEntry, error) {
	key := estKey{gk: gk, n: opt.N, histogramM: opt.HistogramM}
	b.mu.Lock()
	if e, ok := b.est.entries[key]; ok {
		b.est.reuses++
		b.mu.Unlock()
		replayShips(cl, e.ships)
		cl.EndRound()
		return e, nil
	}
	b.mu.Unlock()

	var ships []shipRec
	ship := func(from, to int, bytes int64) {
		ships = append(ships, shipRec{from, to, bytes})
		cl.Ship(from, to, bytes)
	}
	units, span, patched, err := b.assembleUnits(cl, groups, opt, ship)
	if err != nil {
		return nil, err
	}
	cl.EndRound()
	e := &estEntry{units: units, span: span, ships: ships}

	b.mu.Lock()
	if prev, dup := b.est.entries[key]; dup {
		// A concurrent cold round won the race; share its entry.
		e = prev
	} else if len(b.est.entries) < maxEstEntries {
		if b.est.entries == nil {
			b.est.entries = make(map[estKey]*estEntry, 2)
		}
		b.est.entries[key] = e
	}
	b.est.builds++
	if patched {
		b.est.patched++
	}
	b.mu.Unlock()
	return e, nil
}

// maxEstEntries / maxFragEstEntries bound the per-bundle variant caches:
// real sweeps use a handful of (variant, n) combinations, so past the cap
// a round simply runs uncached (still correct) instead of letting a
// caller iterating arbitrary options — or handing a fresh Options.Frag to
// every Detect — grow the bundle without bound.
const (
	maxEstEntries     = 64
	maxFragEstEntries = 16
	maxPlanEntries    = 64
)

// planFor returns the post-split unit set and balanced assignment for the
// options' variant, memoized per variant. The split copy, the weights
// scan, and the LPT / bi-criteria balance are the per-call serial prefix
// between (cached) estimation and the workers' first emission; replaying
// them from the cache bounds the pull pipeline's time-to-first-violation
// by scheduler startup rather than re-planning — latency scales with the
// answer, not the unit count. Comm charges (estimation replay and, in the
// callers, unit-descriptor shipments) still flow through cl on every
// round, so the modeled figures are unchanged by caching.
func (b *Bundle) planFor(cl *cluster.Cluster, groups []*ruleGroup, gk groupKey, opt Options, frag *fragment.Fragmentation) (*planEntry, time.Duration, error) {
	var (
		units [][]workUnit
		span  time.Duration
		err   error
	)
	if frag != nil {
		units, span, err = b.estimateFrag(cl, groups, gk, opt, frag)
	} else {
		units, span, err = b.estimateFor(cl, groups, gk, opt)
	}
	if err != nil {
		return nil, 0, err
	}
	key := planKey{
		ek:        estKey{gk: gk, n: opt.N, histogramM: opt.HistogramM},
		frag:      frag,
		threshold: opt.SplitThreshold,
		noOpt:     opt.NoOptimize,
		random:    opt.RandomAssign,
	}
	if opt.RandomAssign {
		key.seed = opt.Seed
	}
	b.mu.Lock()
	if p, ok := b.est.plans[key]; ok {
		b.mu.Unlock()
		return p, span, nil
	}
	b.mu.Unlock()

	theta := splitThreshold(opt, units)
	p := &planEntry{}
	p.units, p.split = applySplit(units, groups, theta)
	weights := make([]int, len(p.units))
	for i := range p.units {
		weights[i] = p.units[i].Weight()
		p.totalWeight += int64(weights[i])
	}
	switch {
	case opt.RandomAssign:
		p.assign = workload.BalanceRandom(weights, opt.N, opt.Seed)
	case frag != nil:
		cc := func(unit, worker int) int64 { return p.units[unit].shipBytes[worker] }
		p.assign = workload.BalanceBiCriteria(weights, opt.N, cc, commCostWeight)
	default:
		p.assign = workload.BalanceLPT(weights, opt.N)
	}
	p.makespan = p.assign.Makespan(weights)

	b.mu.Lock()
	if prev, dup := b.est.plans[key]; dup {
		// A concurrent cold round won the race; share its entry.
		p = prev
	} else if len(b.est.plans) < maxPlanEntries {
		if b.est.plans == nil {
			b.est.plans = make(map[planKey]*planEntry, 2)
		}
		b.est.plans[key] = p
	}
	b.mu.Unlock()
	return p, span, nil
}

// estimateFrag is the fragmented-engine estimation: disPar's candidate
// reports, the shared base estimation, and per-worker ship costs attached
// to a private copy of the units — all memoized per (variant, partition).
func (b *Bundle) estimateFrag(cl *cluster.Cluster, groups []*ruleGroup, gk groupKey, opt Options, frag *fragment.Fragmentation) ([][]workUnit, time.Duration, error) {
	key := fragEstKey{ek: estKey{gk: gk, n: opt.N, histogramM: opt.HistogramM}, frag: frag}
	b.mu.Lock()
	if e, ok := b.est.fragEntries[key]; ok {
		b.est.reuses++
		b.mu.Unlock()
		replayShips(cl, e.candShips)
		cl.EndRound()
		replayShips(cl, e.estShips)
		cl.EndRound()
		return e.units, e.span, nil
	}
	b.mu.Unlock()

	var candShips []shipRec
	chargeCandidateMessages(b.g, func(from, to int, bytes int64) {
		candShips = append(candShips, shipRec{from, to, bytes})
		cl.Ship(from, to, bytes)
	}, frag, groups)
	cl.EndRound()
	base, err := b.baseEstimate(cl, groups, gk, opt)
	if err != nil {
		return nil, 0, err
	}
	units := slices.Concat(base.units...)
	for i := range units {
		attachShipCosts(b.g, b.topo, frag, &units[i])
	}
	e := &fragEstEntry{units: [][]workUnit{units}, span: base.span, candShips: candShips, estShips: base.ships}

	b.mu.Lock()
	if prev, dup := b.est.fragEntries[key]; dup {
		e = prev
	} else if len(b.est.fragEntries) < maxFragEstEntries {
		if b.est.fragEntries == nil {
			b.est.fragEntries = make(map[fragEstKey]*fragEstEntry, 2)
		}
		b.est.fragEntries[key] = e
	}
	b.mu.Unlock()
	return e.units, e.span, nil
}

// assembleUnits runs the parallel workload-estimation phase shared by
// repVal and disVal: pivot candidate lists are split into equi-depth
// ranges, range combinations are distributed round-robin to workers, each
// worker assembles unit descriptors from the (cached) block-size
// measurements and reports them to the coordinator via ship. The caller
// owns the communication round. patched reports that no candidate list was
// sorted from scratch and the sizes came from a predecessor bundle.
func (b *Bundle) assembleUnits(cl *cluster.Cluster, groups []*ruleGroup, opt Options, ship func(from, to int, bytes int64)) (units [][]workUnit, span time.Duration, patched bool, err error) {
	type task struct {
		group  int
		ranges []stats.Range // one per component
	}
	var tasks []task
	cands, patched := b.candidateLists(groups) // group -> component -> sorted candidates
	for gi, grp := range groups {
		k := grp.pivot.Arity()
		ranges := make([][]stats.Range, k)
		for i := 0; i < k; i++ {
			ranges[i] = stats.EquiDepth(len(cands[gi][i]), opt.HistogramM)
		}
		// Cross-product of per-component ranges; for symmetric deduped
		// patterns only ordered range pairs are kept (Example 10).
		symmetric := !opt.NoOptimize && grp.pivot.Symmetric() && k == 2
		switch k {
		case 1:
			for _, r := range ranges[0] {
				tasks = append(tasks, task{group: gi, ranges: []stats.Range{r}})
			}
		case 2:
			for i, r1 := range ranges[0] {
				for j, r2 := range ranges[1] {
					if symmetric && j < i {
						continue
					}
					tasks = append(tasks, task{group: gi, ranges: []stats.Range{r1, r2}})
				}
			}
		default:
			// k > 2 is rare; a single task covers the full cross product.
			full := make([]stats.Range, k)
			for i := range full {
				full[i] = stats.Range{Lo: 0, Hi: len(cands[gi][i])}
			}
			tasks = append(tasks, task{group: gi, ranges: full})
		}
	}

	// Phase A: resolve every needed c-hop block size, traversing only the
	// pairs the bundle-level cache is missing.
	sizes, sizeSpan, err := b.measureSizes(cl, groups, cands, opt.N)
	if err != nil {
		return nil, 0, false, err
	}
	sizeOf := func(v graph.NodeID, r int) int { return sizes.get(v, r).size }

	// Phase B: workers assemble the unit descriptors for their range
	// combinations from the resolved sizes, each into its own chunk with
	// the candidate vectors cut from one backing array.
	units = make([][]workUnit, opt.N)
	busy, err := cl.RunMeasured(func(w int) {
		// One-component tasks emit exactly one unit per candidate: size the
		// chunk for them up front.
		n := 0
		for ti := w; ti < len(tasks); ti += opt.N {
			if t := tasks[ti]; len(t.ranges) == 1 {
				n += t.ranges[0].Len()
			}
		}
		mine := make([]workUnit, 0, n)
		vecs := make([]graph.NodeID, 0, n)
		for ti := w; ti < len(tasks); ti += opt.N {
			t := tasks[ti]
			grp := groups[t.group]
			slice := make([][]graph.NodeID, len(t.ranges))
			for i, r := range t.ranges {
				slice[i] = cands[t.group][i][r.Lo:r.Hi]
			}
			// Within the diagonal range pair the ordered-pair rule applies;
			// off-diagonal pairs are disjoint, so the flag only prunes the
			// diagonal.
			dedup := !opt.NoOptimize && len(t.ranges) == 2 && t.ranges[0] == t.ranges[1]
			workload.EachUnit(grp.pivot, slice, sizeOf, dedup, func(vec []graph.NodeID, size int) bool {
				vecs = append(vecs, vec...)
				mine = append(mine, workUnit{Unit: workload.Unit{Pivot: grp.pivot, BlockSize: size}, group: t.group})
				return true
			})
		}
		off := 0
		for i := range mine {
			k := mine[i].Pivot.Arity()
			mine[i].Candidates = vecs[off : off+k : off+k]
			off += k
		}
		units[w] = mine
	})
	if err != nil {
		return nil, 0, false, err
	}
	for w, mine := range units {
		// Report ⟨v̄_z, |G_z̄|⟩ descriptors to the coordinator (one batched
		// message per worker).
		ship(w, cluster.Coordinator, int64(len(mine))*unitDescriptorBytes)
	}
	return units, sizeSpan + cluster.MaxSpan(busy), patched, nil
}

// candidateLists returns, per group and pivot component, the candidates in
// equi-depth order. Lists are kept per pivot label across the bundle's
// variants and, patched, across graph versions; a label first seen here is
// sorted from scratch. patched reports an inherited state and no scratch
// sort.
func (b *Bundle) candidateLists(groups []*ruleGroup) (cands [][][]graph.NodeID, patched bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.syncEstimationLocked()
	patched = b.est.inherited
	cands = make([][][]graph.NodeID, len(groups))
	for gi, grp := range groups {
		cands[gi] = make([][]graph.NodeID, grp.pivot.Arity())
		for i := range cands[gi] {
			label := grp.pivot.Label(i)
			l, ok := b.est.lists[label]
			if !ok {
				patched = false
				l = stats.SortByValue(b.g, grp.pivot.CandidatesIn(b.topo, i), sortAttr)
				lists := maps.Clone(b.est.lists)
				if lists == nil {
					lists = make(map[string][]graph.NodeID, 2)
				}
				lists[label] = l
				b.est.lists = lists
			}
			cands[gi][i] = l
		}
	}
	return cands, patched
}

// measureSizes resolves |G_z̄[z]| for every (candidate, radius) pair any
// group needs: cached pairs are read back, missing ones are traversed in
// parallel (each assigned to exactly one worker) and published into the
// bundle's table with their traversal cost. The modeled span is
// reconstructed from the per-pair costs over the round-robin schedule, so
// it is faithful to a from-scratch n-worker phase whether the pairs were
// cached or traversed this round.
func (b *Bundle) measureSizes(cl *cluster.Cluster, groups []*ruleGroup, cands [][][]graph.NodeID, n int) (sizeTable, time.Duration, error) {
	b.mu.Lock()
	resolved := b.est.sizes
	b.mu.Unlock()
	// One request per distinct (candidate, radius), in first-seen order.
	total := 0
	for _, cs := range cands {
		for _, c := range cs {
			total += len(c)
		}
	}
	reqs := make([]sizeReq, 0, total)
	var missing []sizeReq
	seen := make(map[int][]bool)
	for gi, grp := range groups {
		for i := 0; i < grp.pivot.Arity(); i++ {
			r := grp.pivot.Radii[i]
			mark := seen[r]
			if mark == nil {
				mark = make([]bool, b.topo.NumNodes())
				seen[r] = mark
			}
			for _, v := range cands[gi][i] {
				if mark[v] {
					continue
				}
				mark[v] = true
				reqs = append(reqs, sizeReq{v, r})
				if resolved.get(v, r).size == 0 {
					missing = append(missing, sizeReq{v, r})
				}
			}
		}
	}
	if len(missing) > 0 {
		topo := b.topo
		got := make([]sizeVal, len(missing))
		_, err := cl.RunMeasured(func(w int) {
			start := time.Now()
			var weight int64
			for i := w; i < len(missing); i += n {
				sz := topo.NeighborhoodSize(missing[i].node, missing[i].radius)
				got[i] = sizeVal{size: sz}
				weight += int64(sz) + 1
			}
			// Attribute the worker's busy time to its traversals in
			// proportion to block size (traversal cost is linear in it):
			// per-traversal clock reads would tax the cold path the cache
			// exists to keep cheap.
			if total := time.Since(start); weight > 0 {
				for i := w; i < len(missing); i += n {
					got[i].cost = time.Duration(int64(total) * (int64(got[i].size) + 1) / weight)
				}
			}
		})
		if err != nil {
			// A measurement worker died; the completed traversals from the
			// surviving workers are still valid, but this estimation pass
			// cannot finish. Do not pollute the cache with a partial merge.
			return nil, 0, err
		}
		// Publish onto the current table: a concurrent round may have
		// published its own measurements since this one read it.
		b.mu.Lock()
		wr := newSizeWriter(b.est.sizes)
		for i, k := range missing {
			wr.set(k.node, k.radius, got[i])
		}
		b.est.sizes = wr.t
		b.est.measured += len(missing)
		b.mu.Unlock()
		resolved = wr.t
	}
	busy := make([]time.Duration, n)
	for i, k := range reqs {
		busy[i%n] += resolved.get(k.node, k.radius).cost
	}
	return resolved, cluster.MaxSpan(busy), nil
}

// inheritEstimationLocked hands the estimation state across a bundle
// rebuild (the caller holds prev.mu; b is not yet shared). Counters always
// carry — they are cumulative probes. The sorted candidate lists and the
// block sizes carry when the updates separating the two bundles are known
// from overlay touch logs; the successor's first estimation pass patches
// them (syncEstimationLocked). Anything else leaves b cold.
func (b *Bundle) inheritEstimationLocked(prev *Bundle) {
	b.est.builds = prev.est.builds
	b.est.patched = prev.est.patched
	b.est.reuses = prev.est.reuses
	b.est.measured = prev.est.measured
	touched, attrs, ok := b.deltaSince(prev)
	if !ok {
		return
	}
	d := prev.est.from
	if d != nil {
		// prev never estimated: chain its pending delta.
		d = &estDelta{lists: d.lists, sizes: d.sizes, numNodes: d.numNodes,
			touched: slices.Concat(d.touched, touched), attrs: slices.Concat(d.attrs, attrs)}
	} else {
		if len(prev.est.lists) == 0 {
			return
		}
		d = &estDelta{lists: prev.est.lists, sizes: prev.est.sizes, numNodes: prev.numNodes,
			touched: touched, attrs: attrs}
	}
	// A delta as large as the graph costs what a cold plan does to
	// re-place; it also bounds the chain of bundles that never estimated.
	if len(d.touched)+len(d.attrs) > b.topo.NumNodes() {
		return
	}
	b.est.from = d
}

// deltaSince returns the topology and attribute touches separating prev's
// view from b's, when overlay logs record all of them.
func (b *Bundle) deltaSince(prev *Bundle) (touched, attrs []graph.NodeID, ok bool) {
	switch pt := prev.topo.(type) {
	case *graph.Overlay:
		// Normal warm path: the session's overlay absorbed the deltas (and
		// may have been superseded by a compacted view of the same graph).
		if !pt.Synced() || pt.Graph() != b.g {
			return nil, nil, false
		}
		return pt.TouchedSince(prev.touchMark), pt.AttrTouchedSince(prev.attrMark), true
	case *graph.Snapshot:
		// First Apply after a cold prepare: the new overlay patches the
		// very snapshot prev ran on, so its whole logs are the delta.
		ov, ok := b.topo.(*graph.Overlay)
		if !ok || ov.Base() != pt || ov.Graph() != b.g {
			return nil, nil, false
		}
		return ov.TouchedSince(0), ov.AttrTouchedSince(0), true
	}
	return nil, nil, false
}

// syncEstimationLocked brings an inherited estimation state up to b's
// version (the caller holds b.mu): every (v, r) size within r hops of a
// topology-touched node is dropped, and each sorted candidate list
// re-places its attribute-touched members and takes in the new nodes of
// its class.
func (b *Bundle) syncEstimationLocked() {
	d := b.est.from
	if d == nil {
		return
	}
	b.est.from = nil
	b.est.inherited = true

	sizes := d.sizes
	if len(d.touched) > 0 && len(sizes) > 0 {
		wr := newSizeWriter(sizes)
		for v, dist := range distWithin(b.topo, d.touched, len(sizes)-1) {
			for r := dist; r < len(sizes); r++ {
				if sizes.get(v, r).size != 0 {
					wr.set(v, r, sizeVal{})
				}
			}
		}
		sizes = wr.t
	}
	b.est.sizes = sizes

	syms := b.topo.Syms()
	n := b.topo.NumNodes()
	lists := make(map[string][]graph.NodeID, len(d.lists))
	var moved []graph.NodeID
	for label, l := range d.lists {
		sym := syms.Lookup(label)
		in := func(v graph.NodeID) bool { return label == pattern.Wildcard || b.topo.Label(v) == sym }
		moved = moved[:0]
		for _, v := range d.attrs {
			if int(v) < d.numNodes && in(v) {
				moved = append(moved, v)
			}
		}
		for v := graph.NodeID(d.numNodes); int(v) < n; v++ {
			if in(v) {
				moved = append(moved, v)
			}
		}
		lists[label] = stats.ResortByValue(b.g, l, moved, sortAttr)
	}
	b.est.lists = lists
}

// distWithin runs a multi-source undirected BFS from the touched nodes up
// to maxR hops and returns each reached node's hop distance to the nearest
// source — the stale region: a cached (v, r) measurement can only have
// changed if dist(v) <= r. Distances are computed on the new topology;
// updates are insert-only, so new edges can only shorten distances, which
// errs on the side of re-measuring.
func distWithin(topo graph.Topology, sources []graph.NodeID, maxR int) map[graph.NodeID]int {
	dist := make(map[graph.NodeID]int, len(sources)*4)
	var frontier []graph.NodeID
	for _, v := range sources {
		if _, ok := dist[v]; !ok {
			dist[v] = 0
			frontier = append(frontier, v)
		}
	}
	for hop := 1; hop <= maxR && len(frontier) > 0; hop++ {
		var next []graph.NodeID
		for _, v := range frontier {
			for _, e := range topo.Out(v) {
				if _, ok := dist[e.To]; !ok {
					dist[e.To] = hop
					next = append(next, e.To)
				}
			}
			for _, e := range topo.In(v) {
				if _, ok := dist[e.To]; !ok {
					dist[e.To] = hop
					next = append(next, e.To)
				}
			}
		}
		frontier = next
	}
	return dist
}
