package validate

import (
	"context"
	"time"

	"gfd/internal/cluster"
	"gfd/internal/core"
	"gfd/internal/fragment"
	"gfd/internal/graph"
)

// RepVal is the parallel scalable error-detection algorithm for replicated
// graphs (Fig. 4 / Theorem 10). The graph is available at every worker, so
// no block data is ever shipped; the engine balances the estimated
// workload W(Σ, G) across workers with the LPT greedy 2-approximation and
// runs local detection in parallel.
//
// Variants: Options.RandomAssign yields repran, Options.NoOptimize yields
// repnop.
//
// It builds a one-shot bundle per call; callers validating the same graph
// repeatedly should hold a session (gfd.NewSession) and Detect with
// EngineReplicated instead.
func RepVal(g *graph.Graph, set *core.Set, opt Options) *Result {
	res, _ := RepValB(context.Background(), NewBundle(g, set), opt, nil)
	return res
}

// RepValB is repVal over a prepared bundle with cooperative cancellation:
// workers check the context between work units and (strided) inside match
// enumeration, so a cancelled run aborts promptly and returns the
// context's error with partial instrumentation. When sink is non-nil,
// violations are delivered to it as they are found (each worker emitting
// on its own lane, stopping the engine when the sink refuses) and
// Result.Violations stays empty; a nil sink collects per worker, unions
// and sorts into Result.Violations.
//
// Detection runs under the fault-tolerant scheduler (runtime.go): worker
// panics are isolated, failed units are retried under Options.Retry, and
// when budgets exhaust the error is a *PartialError (errors.Is ErrPartial)
// with Result.Completeness carrying the census.
func RepValB(ctx context.Context, b *Bundle, opt Options, sink Sink) (*Result, error) {
	return parVal(ctx, b, nil, opt, sink)
}

// parVal is the one body of repVal and disVal: estimate and balance the
// work units (bPar / disPar), then run local detection under the
// fault-tolerant scheduler and union the violations at the coordinator.
// A nil frag is repVal over the replicated graph; a fragmentation makes it
// disVal, which fixes the worker count to frag.N, ships each unit's
// missing block (prefetch or partial matches) before every attempt, and
// closes that exchange with a round of its own.
func parVal(ctx context.Context, b *Bundle, frag *fragment.Fragmentation, opt Options, sink Sink) (res *Result, err error) {
	if err := ctx.Err(); err != nil {
		// A dead context must not pay for the estimation phase.
		return &Result{}, err
	}
	res = &Result{}
	defer engineRecover(&err)
	opt = opt.Normalized()
	if frag != nil {
		// The fragmentation fixes worker count; workers beyond frag.N
		// would own no data.
		opt.N = frag.N
	}
	start := time.Now()
	cl := cluster.New(opt.N, opt.Cost)
	inj := opt.Inject.Arm(opt.N)
	cl.Arm(inj)

	set, groups, gk := b.ruleGroupsKeyed(opt)
	res.Rules = set.Len()
	res.Groups = len(groups)

	// ---- estimation + split + balanced (or bi-criteria, with frag)
	// n-partition, all memoized per (variant, fragmentation); warm rounds
	// replay the plan and its comm charges without re-touching the unit
	// set (estimate.go) --------------------------------------------------
	estStart := time.Now()
	plan, estSpan, err := b.planFor(cl, groups, gk, opt, frag)
	if err != nil {
		return res, err
	}
	res.EstimateSpan = estSpan
	res.SplitUnits = plan.split
	res.Units = len(plan.units)
	res.TotalWeight = plan.totalWeight
	res.Makespan = plan.makespan
	res.EstimateWall = time.Since(estStart)
	if err := ctx.Err(); err != nil {
		return res, err
	}
	// Shipping W_i(Σ, G) to each worker: one compact descriptor per unit.
	for w, idxs := range plan.assign {
		cl.Ship(cluster.Coordinator, w, int64(len(idxs))*unitDescriptorBytes)
	}
	cl.EndRound()

	// ---- local detection under the fault-tolerant scheduler
	// (runtime.go) --------------------------------------------------------
	detStart := time.Now()
	var collect *CollectSink
	if sink == nil {
		collect = NewCollectSink(opt.N)
		sink = collect
	}
	run := &detectRun{ctx: ctx, cl: cl, topo: b.topo, groups: groups, units: plan.units, opt: opt, sink: sink, inj: inj}
	var ex *blockExchange
	if frag != nil {
		ex = newBlockExchange(b, frag, run)
		run.prep = ex.prep
	}
	span, comp, perr := run.run(plan.assign)
	res.DetectWall = time.Since(detStart)
	res.DetectSpan = span
	res.Completeness = comp
	if ex != nil {
		cl.EndRound() // block/partial-match exchanges during detection
		for w := range ex.prefetched {
			res.PrefetchUnits += ex.prefetched[w]
			res.PartialUnits += ex.partials[w]
		}
	}

	// ---- union at the coordinator -------------------------------------
	// Violations return to the coordinator whichever sink consumed them;
	// the shipment is charged off the per-worker delivery counts.
	for w, cnt := range run.counts {
		cl.Ship(w, cluster.Coordinator, cnt*violationBytes)
	}
	cl.EndRound()
	if collect != nil {
		res.Violations = collect.Report()
		res.Violations.Sort()
	}

	st := cl.Stats()
	res.BytesShipped = st.TotalBytes
	res.Messages = st.TotalMsgs
	res.Comm = cl.CommTime()
	res.Wall = time.Since(start)
	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, perr
}

const (
	unitDescriptorBytes = 16 // ⟨v̄_z, |G_z̄|⟩ on the wire
	candidateInfoBytes  = 16 // candidate + block-part size
	violationBytes      = 48 // rule name tag + match vector
)
