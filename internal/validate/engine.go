package validate

import (
	"time"

	"gfd/internal/cluster"
	"gfd/internal/core"
	"gfd/internal/fault"
	"gfd/internal/fragment"
	"gfd/internal/graph"
	"gfd/internal/match"
	"gfd/internal/workload"
)

// Options configures the validation engines. The zero value is completed
// by Normalized(): the replicated engine, 4 workers, LPT/bi-criteria
// assignment, all optimizations on.
type Options struct {
	// Engine selects the algorithm a unified entry point (Prepared.Detect
	// / Prepared.Violations) runs; the direct engine functions ignore it.
	// EngineAuto resolves to EngineReplicated.
	Engine Engine
	// Frag supplies the fragmentation for EngineFragmented. When nil the
	// session hash-partitions the graph into N fragments (cached per
	// graph version). Ignored by the other engines.
	Frag *fragment.Fragmentation
	// N is the number of workers (processors).
	N int
	// RandomAssign replaces the LPT / bi-criteria assignment with uniform
	// random placement: the repran / disran variants.
	RandomAssign bool
	// NoOptimize disables the Appendix optimizations (multi-query pattern
	// grouping, symmetric work-unit deduplication, implication-based
	// workload reduction, replicate-and-split, and disVal's partial-match
	// shipping): the repnop / disnop variants.
	NoOptimize bool
	// NoReduce keeps implied rules even when optimizing; workload
	// reduction costs an implication test per rule, which the ablation
	// benchmarks isolate.
	NoReduce bool
	// HistogramM is the predefined number m of equi-depth ranges per pivot
	// candidate list used to spread estimation work (Section 6.1).
	// Defaults to 16; it is deliberately independent of N so the number of
	// estimation messages stays constant as workers are added.
	HistogramM int
	// SplitThreshold is θ of the replicate-and-split strategy: work units
	// whose data block exceeds θ are split into stripes. 0 derives a
	// default from the workload (4× the mean block size); negative
	// disables splitting.
	SplitThreshold int
	// ArbitraryPivot replaces min-radius pivot selection with the first
	// variable of each component (ablation).
	ArbitraryPivot bool
	// Seed drives the random assignment variant.
	Seed int64
	// Cost prices simulated communication.
	Cost cluster.CostModel

	// Retry is the per-unit retry budget the parallel engines apply when a
	// worker dies or a unit misses its deadline. The zero value normalizes
	// to the defaults (DefaultRetryMax attempts beyond the first,
	// DefaultRetryBackoff base backoff); Max < 0 disables retries.
	Retry Retry
	// UnitDeadline bounds one attempt of one work unit: an attempt running
	// longer is abandoned (cooperatively, at the same strided checkpoints
	// as cancellation) and the unit is retried under the Retry budget.
	// 0 means no per-unit deadline.
	UnitDeadline time.Duration
	// Inject arms a deterministic fault plan for this run (see
	// internal/fault). nil — the production state — makes every injection
	// point a nil-check no-op.
	Inject *fault.Plan

	// StreamBuffer bounds the per-worker violation lanes of the pull-based
	// pipeline (Prepared.Violations): each worker may run at most this many
	// violations ahead of the consumer before blocking. 0 normalizes to
	// DefaultStreamBuffer; the collect and callback sinks ignore it.
	StreamBuffer int

	// Dist configures EngineDistributed (internal/dist): where the shard
	// manifest lives and how worker processes are supervised. Ignored by
	// every other engine; nil with EngineDistributed is an error.
	Dist *DistOptions
}

// Retry configures the parallel engines' unit retry policy: a unit may be
// re-attempted up to Max times beyond its first attempt, and each recovery
// round backs off exponentially from Backoff (doubled per round, capped at
// maxBackoffFactor times the base) before reassigning failed units to live
// workers.
type Retry struct {
	Max     int           // retries per unit after the first attempt; < 0 disables
	Backoff time.Duration // base recovery-round backoff; < 0 disables
}

// Default retry policy: two retries with a 1ms base backoff. Backoff only
// costs anything after a failure, so the defaults are safe for fault-free
// runs.
const (
	DefaultRetryMax     = 2
	DefaultRetryBackoff = time.Millisecond
	maxBackoffFactor    = 8
)

// DefaultStreamBuffer is the per-worker lane capacity of the pull-based
// violation pipeline when Options.StreamBuffer is unset: deep enough to
// absorb bursts, small enough that an abandoned iterator bounds buffered
// work to a few KB per worker.
const DefaultStreamBuffer = 64

// Normalized fills unset fields with their defaults: the replicated
// engine, 4 workers, histogram m = 16, the default cost model, the default
// retry policy.
func (o Options) Normalized() Options {
	o.Engine = o.Engine.Resolve()
	if o.N < 1 {
		o.N = 4
	}
	if o.HistogramM <= 0 {
		o.HistogramM = 16
	}
	if o.Cost == (cluster.CostModel{}) {
		o.Cost = cluster.DefaultCostModel()
	}
	if o.Retry.Max == 0 {
		o.Retry.Max = DefaultRetryMax
	} else if o.Retry.Max < 0 {
		o.Retry.Max = 0
	}
	if o.Retry.Backoff == 0 {
		o.Retry.Backoff = DefaultRetryBackoff
	} else if o.Retry.Backoff < 0 {
		o.Retry.Backoff = 0
	}
	if o.StreamBuffer <= 0 {
		o.StreamBuffer = DefaultStreamBuffer
	}
	return o
}

// Result carries the violation set plus the instrumentation the
// experiments report.
type Result struct {
	Violations Report

	Rules  int // rules validated (after any reduction)
	Groups int // rule groups after multi-query combining
	Units  int // work units generated (after dedup/splitting)

	Wall         time.Duration // end-to-end wall-clock time on this host
	EstimateWall time.Duration // workload estimation phase (wall)
	DetectWall   time.Duration // local detection phase (wall)
	EstimateSpan time.Duration // modeled estimation span: max worker busy time
	DetectSpan   time.Duration // modeled detection span: max worker busy time
	Comm         time.Duration // modeled communication time
	BytesShipped int64         // total simulated data shipment
	Messages     int64

	Makespan    int64 // heaviest worker load (weight units)
	TotalWeight int64 // Σ unit weights ≈ sequential cost t(|Σ|,|G|)

	PrefetchUnits int // disVal: units evaluated by block prefetching
	PartialUnits  int // disVal: units evaluated by partial-match shipping
	SplitUnits    int // units produced by replicate-and-split

	// Completeness reports how much of the scheduled workload actually
	// completed: an honest answer instead of a silently clean report when
	// workers died or units exhausted their retry budgets. Filled by the
	// parallel engines (repVal / disVal); Complete() is trivially true for
	// the single-sink engines, which either finish or return an error.
	Completeness Completeness
}

// Completeness is the execution census of one detection run under the
// fault-tolerant scheduler.
type Completeness struct {
	Units          int // work units scheduled
	Attempted      int // units started at least once
	Succeeded      int // units that completed
	Failed         int // units abandoned: retry budget exhausted or no live workers left
	Retries        int // re-attempts beyond each unit's first
	WorkerDeaths   int // workers lost to recovered panics
	RecoveryRounds int // extra supersteps spent reassigning failed units
}

// Complete reports whether every scheduled unit succeeded. A cancelled
// run is not complete (unreached units are neither succeeded nor failed).
func (c Completeness) Complete() bool { return c.Succeeded == c.Units }

// TotalTime is wall time plus modeled communication time.
func (r *Result) TotalTime() time.Duration { return r.Wall + r.Comm }

// ModeledTime is the simulated n-worker parallel time the paper's figures
// plot: the maximum per-worker busy time of each phase (workers are
// logical; compute is measured per worker and phases overlap only within
// a worker) plus the modeled communication time. On a host with fewer
// cores than n this is the faithful scaling metric — wall time cannot
// drop below (total work / physical cores) regardless of n.
func (r *Result) ModeledTime() time.Duration {
	return r.EstimateSpan + r.DetectSpan + r.Comm
}

// workUnit is a work unit bound to its rule group and optional stripe.
type workUnit struct {
	workload.Unit
	group      int
	stripeMod  int // 0 = unstriped
	stripeRem  int
	shipBytes  []int64 // disVal: bytes to ship if assigned to worker i
	totalBytes int64   // disVal: full block bytes
}

// unitDetector is one worker's detection state: a topology-backed Matcher
// plus reusable pin map, match scratch, and cancellation probe, so the
// per-unit loop stays off the allocator. Workers each own one; the
// underlying Topology (snapshot or overlay) is shared and serves both
// enumeration (CSR topology) and literal evaluation (interned attributes).
type unitDetector struct {
	m       *match.Matcher
	pin     map[int]graph.NodeID
	scratch core.Match
	block   *graph.EpochSet // reusable data block, refilled per unit
	cancel  *cancelCheck    // per-worker; consulted between matches
	halt    func() bool     // cancel.canceled bound once; threaded into enumeration

	// Fault-injection context: nil inj in production (crossings are
	// nil-check no-ops); worker/unit identify the current execution for
	// the injected-panic payloads.
	inj    *fault.Injector
	worker int
	unit   int
}

func newUnitDetector(topo graph.Topology, cancel *cancelCheck, inj *fault.Injector, worker int) *unitDetector {
	return &unitDetector{
		m:      match.NewMatcher(topo),
		pin:    make(map[int]graph.NodeID, 2),
		block:  graph.NewEpochSet(topo.NumNodes()),
		cancel: cancel,
		// Bind the method value once so the per-unit loop hands the matcher
		// a halt probe without allocating a closure per unit.
		halt:   cancel.canceled,
		inj:    inj,
		worker: worker,
		unit:   -1,
	}
}

// fillBlock assembles the unit's data block G_z̄ into the detector's
// reusable EpochSet: the union of the c_i-hop neighborhoods of the pivot
// candidates, with zero steady-state allocation (the hash-set-per-unit it
// replaces dominated the detection phase's allocations).
func (d *unitDetector) fillBlock(u workUnit) *graph.EpochSet {
	d.block.Reset()
	topo := d.m.Topo()
	for i, v := range u.Candidates {
		topo.BlockInto(d.block, v, u.Unit.Pivot.Radii[i])
	}
	return d.block
}

// detect enumerates the matches of the unit's group pattern inside the
// unit's data block, with the pivots pinned to the unit's candidates, and
// checks every group dependency on each match, delivering violations to
// emit. For symmetric two-component patterns whose mirrored units were
// deduplicated, both pin orders are enumerated so the full match set is
// preserved. It returns false when the worker must stop: the context was
// cancelled or emit refused a violation.
func (d *unitDetector) detect(grp *ruleGroup, u workUnit, deduped bool, emit func(Violation) bool) bool {
	block := d.fillBlock(u)
	ok := true
	runPins := func(c0, c1 graph.NodeID, both bool) {
		if !ok {
			return
		}
		clear(d.pin)
		if both {
			d.pin[grp.pivot.Vars[0]] = c0
			d.pin[grp.pivot.Vars[1]] = c1
		} else {
			for i, v := range grp.pivot.Vars {
				d.pin[v] = u.Candidates[i]
			}
		}
		opts := match.Options{
			Block:      block,
			Pin:        d.pin,
			StripeMod:  u.stripeMod,
			StripeRem:  u.stripeRem,
			StripeNode: stripeNode(grp, u),
			// Early termination must reach candidate enumeration itself:
			// without the halt probe a cancelled (or consumer-stopped) run
			// only notices between matches, which on a matchless stretch of
			// a huge class is never.
			Halt: d.halt,
		}
		d.m.Enumerate(grp.q, opts, func(m core.Match) bool {
			if d.inj != nil {
				// Two crossings per delivered match: the match itself and
				// the literal evaluation about to run on it.
				d.inj.Cross(fault.Match, d.worker, d.unit)
				d.inj.Cross(fault.Literal, d.worker, d.unit)
			}
			if d.cancel.canceled() || !grp.checkMatch(d.m.Topo(), m, &d.scratch, emit) {
				ok = false
				return false
			}
			return true
		})
	}
	if deduped && grp.pivot.Symmetric() && len(u.Candidates) == 2 {
		runPins(u.Candidates[0], u.Candidates[1], true)
		runPins(u.Candidates[1], u.Candidates[0], true)
		return ok
	}
	runPins(0, 0, false)
	return ok
}

// stripeNode picks the pattern node the stripe constraint applies to: the
// first node that is not a pivot. Returns -1 (striping disabled upstream)
// when every node is pinned.
func stripeNode(grp *ruleGroup, u workUnit) int {
	if u.stripeMod == 0 {
		return -1
	}
	pinned := make(map[int]bool, len(grp.pivot.Vars))
	for _, v := range grp.pivot.Vars {
		pinned[v] = true
	}
	for i := 0; i < grp.q.NumNodes(); i++ {
		if !pinned[i] {
			return i
		}
	}
	return -1
}

// splittable reports whether the group pattern has an unpinned node to
// stripe on.
func splittable(grp *ruleGroup) bool {
	return grp.q.NumNodes() > len(grp.pivot.Vars)
}

// splitThreshold resolves the effective θ given the generated units.
func splitThreshold(opt Options, units []workUnit) int {
	if opt.NoOptimize || opt.SplitThreshold < 0 || len(units) == 0 {
		return 0 // disabled
	}
	if opt.SplitThreshold > 0 {
		return opt.SplitThreshold
	}
	var total int64
	for _, u := range units {
		total += int64(u.BlockSize)
	}
	return int(4 * total / int64(len(units)))
}

// applySplit replaces oversized units with stripes (replicate-and-split,
// Appendix): each stripe keeps the pivots and data block but enumerates
// only matches whose stripe-node image falls in its residue class, so the
// stripes' match sets partition the original unit's.
func applySplit(units []workUnit, groups []*ruleGroup, theta int) (out []workUnit, split int) {
	if theta <= 0 {
		return units, 0
	}
	out = make([]workUnit, 0, len(units))
	for _, u := range units {
		grp := groups[u.group]
		if u.BlockSize <= theta || !splittable(grp) {
			out = append(out, u)
			continue
		}
		s := (u.BlockSize + theta - 1) / theta
		if s < 2 {
			out = append(out, u)
			continue
		}
		for rem := 0; rem < s; rem++ {
			su := u
			su.stripeMod = s
			su.stripeRem = rem
			su.BlockSize = u.BlockSize / s
			if su.BlockSize == 0 {
				su.BlockSize = 1
			}
			out = append(out, su)
			split++
		}
	}
	return out, split
}
