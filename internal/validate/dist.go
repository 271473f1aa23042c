package validate

import (
	"context"
	"fmt"
	"time"

	"gfd/internal/cluster"
	"gfd/internal/core"
	"gfd/internal/fault"
	"gfd/internal/graph"
	"gfd/internal/workload"
)

// This file is the seam between the in-process engines and the
// shared-nothing runtime in internal/dist: a serializable view of the
// memoized workload plan (DistPlan) for the coordinator, and a per-unit
// execution facade (UnitRunner) for the worker process. Both sides run
// the same unitDetector the in-process engines use; what crosses the
// process boundary is only unit descriptors, halo data, and violations.

// DistOptions configures EngineDistributed. It is carried on
// Options.Dist and ignored by every other engine.
type DistOptions struct {
	// ManifestPath locates the shard manifest written by
	// fragment.SaveShards / gfdgen -fragments (a JSON file naming the
	// per-fragment .gfds files, the partition strategy, and the node
	// count). Required.
	ManifestPath string
	// Command is the argv prefix used to spawn one worker process per
	// shard. Empty defaults to re-executing the current binary; the child
	// is recognized by environment (dist.MaybeWorker), not by flags, so
	// any binary that calls MaybeWorker early in main works.
	Command []string
	// HeartbeatInterval is how often an idle worker writes a heartbeat
	// frame; the coordinator declares a worker lost after three silent
	// intervals. 0 defaults to dist.DefaultHeartbeat.
	HeartbeatInterval time.Duration
	// HandshakeTimeout bounds spawn-to-READY; a worker that cannot open
	// its shard in time is killed and its units reassigned. 0 defaults to
	// dist.DefaultHandshakeTimeout.
	HandshakeTimeout time.Duration
	// MaxRespawns caps how many replacement processes the coordinator
	// starts per worker slot after a death. Respawned processes never
	// re-arm fault plans (a real crash would not either). Negative
	// disables respawn; 0 defaults to 1.
	MaxRespawns int
}

// DistUnit is the wire-facing descriptor of one work unit: everything a
// worker process needs to reconstruct the exact workUnit the in-process
// engines would run, given that it rebuilds the identical rule groups
// from the shipped effective rule set.
type DistUnit struct {
	ID         int // index into DistPlan.Units — the unit's global identity
	Group      int // rule-group index (group order is deterministic in rule order)
	Candidates []graph.NodeID
	StripeMod  int // 0 = unstriped
	StripeRem  int
	BlockSize  int
}

// Weight is the unit's scheduling weight (its estimated block size).
func (u DistUnit) Weight() int64 { return int64(u.BlockSize) }

// DistPlan is the coordinator's serializable image of one memoized
// workload plan: the effective rule set (post-reduction — workers must
// not reduce again), the grouping flags workers need to rebuild identical
// group indices, the unit descriptors, and the balanced initial
// assignment with its modeled accounting.
type DistPlan struct {
	Set            *core.Set // effective rule set; ship via core.WriteRules
	Combine        bool      // multi-query grouping was applied
	ArbitraryPivot bool
	Groups         int
	Units          []DistUnit
	Assign         [][]int // worker -> unit IDs, LPT-balanced
	Split          int     // units produced by replicate-and-split
	TotalWeight    int64
	Makespan       int64
	EstimateSpan   time.Duration

	b     *Bundle
	units []workUnit
}

// DistPlan derives the distributed execution plan from the bundle's
// memoized estimation caches, charging estimation shipment against cl
// exactly as repVal does (the modeled-span oracle the measured run is
// compared to). The plan is estimated against the coordinator's replicated
// topology with frag == nil: ownership lives in the shard manifest, not in
// an in-memory Fragmentation, so deriving the plan performs no partition
// and no snapshot build.
func (b *Bundle) DistPlan(cl *cluster.Cluster, opt Options) (*DistPlan, error) {
	opt = opt.Normalized()
	set, groups, gk := b.ruleGroupsKeyed(opt)
	plan, estSpan, err := b.planFor(cl, groups, gk, opt, nil)
	if err != nil {
		return nil, err
	}
	p := &DistPlan{
		Set:            set,
		Combine:        gk.combine,
		ArbitraryPivot: gk.arbitraryPivot,
		Groups:         len(groups),
		Split:          plan.split,
		TotalWeight:    plan.totalWeight,
		Makespan:       plan.makespan,
		EstimateSpan:   estSpan,
		b:              b,
		units:          plan.units,
	}
	p.Units = make([]DistUnit, len(plan.units))
	for i, u := range plan.units {
		p.Units[i] = DistUnit{
			ID:         i,
			Group:      u.group,
			Candidates: u.Candidates,
			StripeMod:  u.stripeMod,
			StripeRem:  u.stripeRem,
			BlockSize:  u.BlockSize,
		}
	}
	p.Assign = make([][]int, len(plan.assign))
	for w, idxs := range plan.assign {
		p.Assign[w] = append([]int(nil), idxs...)
	}
	return p, nil
}

// BlockInto fills set with unit i's data block — the union of the pivot
// candidates' radius neighborhoods — computed on the coordinator's
// topology. The set is reset first; its members come in fill order. The
// coordinator uses the block to decide which non-owned nodes a worker
// needs shipped (the halo) before it can reproduce the block locally.
func (p *DistPlan) BlockInto(set *graph.EpochSet, i int) {
	set.Reset()
	u := p.units[i]
	for j, v := range u.Candidates {
		p.b.topo.BlockInto(set, v, u.Pivot.Radii[j])
	}
}

// UnitRunner executes DistUnits inside a worker process: the same
// unitDetector, data-block assembly, stripe filtering, and symmetric
// dedup enumeration the in-process engines run, over the worker's
// shard-backed topology. It is single-threaded, like the worker's
// assignment loop, which runs a window's units one after another in the
// order the coordinator sent them.
type UnitRunner struct {
	groups []*ruleGroup
	det    *unitDetector
	cancel *cancelCheck
	noOpt  bool
}

// NewUnitRunner prepares a runner over the worker's bundle. opt must
// carry the grouping flags the coordinator shipped (NoOptimize=!Combine,
// ArbitraryPivot) with NoReduce=true, so the worker's group indices match
// the coordinator's plan. inj is the worker's armed fault injector (nil
// in production); worker is this process's worker id.
func NewUnitRunner(ctx context.Context, b *Bundle, opt Options, inj *fault.Injector, worker int) *UnitRunner {
	opt = opt.Normalized()
	_, groups, _ := b.ruleGroupsKeyed(opt)
	cancel := &cancelCheck{ctx: ctx}
	return &UnitRunner{
		groups: groups,
		det:    newUnitDetector(b.topo, cancel, inj, worker),
		cancel: cancel,
		noOpt:  opt.NoOptimize,
	}
}

// Groups returns how many rule groups the runner rebuilt — the worker
// sanity-checks it against the coordinator's count during the handshake.
func (r *UnitRunner) Groups() int { return len(r.groups) }

// Run executes one unit. found counts every violation the unit
// enumerates; the first skip of them are suppressed without emission —
// the exactly-once retry dedupe: enumeration order is deterministic for a
// given shard + halo, so a retried unit resumes past what a previous
// incarnation already delivered. emit returning false stops enumeration
// early (the caller knows why). A non-nil error reports cancellation;
// panics (injected or genuine) are deliberately NOT recovered — in a
// worker process a panic must crash the process so the coordinator sees a
// death, not a silently shortened unit.
func (r *UnitRunner) Run(u DistUnit, skip int64, emit func(Violation) bool) (found int64, err error) {
	if u.Group < 0 || u.Group >= len(r.groups) {
		return 0, fmt.Errorf("validate: unit %d names group %d of %d", u.ID, u.Group, len(r.groups))
	}
	grp := r.groups[u.Group]
	if len(u.Candidates) != len(grp.pivot.Vars) {
		return 0, fmt.Errorf("validate: unit %d carries %d candidates, group %d pivots %d",
			u.ID, len(u.Candidates), u.Group, len(grp.pivot.Vars))
	}
	r.det.unit = u.ID
	// Cross the in-process unit-start site too: DelayUnit straggler rules
	// fire here, and an in-process KillWorker rule panics — which in a
	// worker process is just another way to die.
	r.det.inj.Cross(fault.UnitStart, r.det.worker, u.ID)
	wu := workUnit{
		Unit:      workload.Unit{Pivot: grp.pivot, Candidates: u.Candidates, BlockSize: u.BlockSize},
		group:     u.Group,
		stripeMod: u.StripeMod,
		stripeRem: u.StripeRem,
	}
	out := func(v Violation) bool {
		found++
		if found <= skip {
			return true
		}
		return emit(v)
	}
	if !r.det.detect(grp, wu, !r.noOpt, out) {
		if cerr := r.cancel.ctx.Err(); cerr != nil {
			return found, cerr
		}
	}
	return found, nil
}
