package validate

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"gfd/internal/cluster"
	"gfd/internal/fault"
	"gfd/internal/graph"
	"gfd/internal/workload"
)

// This file is the fault-tolerant execution runtime shared by repVal and
// disVal; its per-unit retry ledger also drives the multi-process
// coordinator (internal/dist). The paper's engines ran on a 20-node EC2 cluster where worker
// loss and stragglers are the steady state; the detection superstep here
// gives the simulated cluster the same failure semantics:
//
//   - a panic inside a worker kills only that worker: the panic is
//     recovered into a typed *cluster.WorkerError (worker id, unit id,
//     stack), the surviving workers drain their assignments, and the
//     coordinator reassigns the dead worker's remaining units to live
//     workers in recovery rounds;
//   - a unit attempt exceeding Options.UnitDeadline is abandoned
//     cooperatively (the worker survives) and retried under the per-unit
//     budget Options.Retry.Max, with capped exponential backoff between
//     recovery rounds;
//   - every reassignment re-ships the unit descriptor (and, for disVal,
//     the unit's block via the per-attempt prep hook) through the BSP cost
//     model, so DetectSpan and the comm figures stay honest under faults;
//   - retried units never double-report: per-unit enumeration is
//     deterministic, so a retry skips exactly the violations its earlier
//     attempts already delivered (UnitState.Emitted) before emitting the
//     rest — the violation set of a recovered run is byte-identical to the
//     fault-free run's (the chaos differential suite pins this);
//   - when budgets exhaust (or every worker is dead) the run returns a
//     *PartialError (errors.Is ErrPartial) listing the failed units, and
//     Result.Completeness carries the census — partial results announce
//     themselves instead of masquerading as clean reports.
//
// The fault-free fast path is the old static superstep: round 0 runs the
// LPT / bi-criteria assignment unchanged, the per-worker recover and the
// per-unit state writes are the only additions, and no recovery round, no
// backoff, and no extra shipment happens unless a failure did.

// ErrPartial marks a detection result whose violation set may be
// incomplete: some work units were abandoned after exhausting their retry
// budget (or losing every worker). Match with errors.Is; the concrete
// error is a *PartialError listing the failures, and Result.Completeness
// carries the counts.
var ErrPartial = errors.New("validate: partial result")

// UnitFailure records one work unit the scheduler had to abandon.
type UnitFailure struct {
	Unit     int   // index into the run's unit set
	Group    int   // rule group of the unit
	Attempts int   // attempts consumed (0: never started — all workers died first)
	Err      error // last failure: *cluster.WorkerError or context.DeadlineExceeded
}

// PartialError aggregates the abandoned units of a partial run. It
// satisfies errors.Is(err, ErrPartial) and unwraps to the per-unit
// failures, so a *cluster.WorkerError or context.DeadlineExceeded buried
// in the run remains matchable.
type PartialError struct {
	Failures []UnitFailure
}

// Error summarizes the failure set.
func (e *PartialError) Error() string {
	if len(e.Failures) == 1 {
		f := e.Failures[0]
		return fmt.Sprintf("validate: partial result: unit %d failed after %d attempts: %v", f.Unit, f.Attempts, f.Err)
	}
	return fmt.Sprintf("validate: partial result: %d units failed (first: %v)", len(e.Failures), e.Failures[0].Err)
}

// Is matches ErrPartial.
func (e *PartialError) Is(target error) bool { return target == ErrPartial }

// Unwrap exposes the per-unit causes to errors.Is / errors.As.
func (e *PartialError) Unwrap() []error {
	out := make([]error, len(e.Failures))
	for i, f := range e.Failures {
		out[i] = f.Err
	}
	return out
}

// Ledger is the per-unit retry ledger of one fault-tolerant detection
// run. The in-process scheduler below and the multi-process coordinator
// (internal/dist) both keep their unit bookkeeping in it, so the policy —
// unit state across attempts, the exhaustion check, failure records, the
// completeness census, the recovery-round backoff and LPT rebalancing over
// live workers — exists once, whatever transport runs the units.
type Ledger struct {
	States []UnitState
	Deaths int // workers lost

	failures    []UnitFailure
	rounds      int // recovery rounds opened
	maxAttempts int
	backoff     time.Duration
	group       func(ui int) int // rule group of a unit, for failure records
	weight      func(ui int) int // scheduling weight of a unit, for rebalancing
}

// UnitState tracks one unit across attempts and recovery rounds. It is
// written by whoever currently owns the unit (ownership moves only between
// attempts) and read by the coordinator between them.
type UnitState struct {
	Attempts int
	Emitted  int // violations already delivered by earlier attempts; retries skip these
	Done     bool
	Failed   bool // already recorded as a failure; later sweeps skip it
	LastErr  error
}

// NewLedger starts the ledger of a run over the given number of units
// under opt's normalized retry budget. group and weight describe unit ui.
func NewLedger(units int, opt Options, group, weight func(ui int) int) *Ledger {
	return &Ledger{
		States:      make([]UnitState, units),
		maxAttempts: 1 + opt.Retry.Max,
		backoff:     opt.Retry.Backoff,
		group:       group,
		weight:      weight,
	}
}

// Exhausted reports whether unit ui has used up its attempt budget.
func (l *Ledger) Exhausted(ui int) bool { return l.States[ui].Attempts >= l.maxAttempts }

// Succeed marks unit ui done and clears its last error; it reports
// whether this call resolved it (false for a unit already done or failed).
func (l *Ledger) Succeed(ui int) bool {
	st := &l.States[ui]
	if st.Done || st.Failed {
		return false
	}
	st.Done = true
	st.LastErr = nil
	return true
}

// Fail abandons unit ui, recording its failure once; it reports whether
// this call recorded it (false for a unit already done or failed).
func (l *Ledger) Fail(ui int) bool {
	st := &l.States[ui]
	if st.Done || st.Failed {
		return false
	}
	st.Failed = true
	err := st.LastErr
	if err == nil {
		err = fmt.Errorf("unit %d: never started: %w", ui, errAllWorkersDead)
	}
	l.failures = append(l.failures, UnitFailure{Unit: ui, Group: l.group(ui), Attempts: st.Attempts, Err: err})
	return true
}

var errAllWorkersDead = errors.New("validate: all workers dead")

// Pending sweeps the unresolved units after a superstep: units still
// inside their budget are returned for reassignment; exhausted ones fail.
func (l *Ledger) Pending() (pending []int) {
	for ui := range l.States {
		st := &l.States[ui]
		if st.Done || st.Failed {
			continue
		}
		if l.Exhausted(ui) {
			l.Fail(ui)
			continue
		}
		pending = append(pending, ui)
	}
	return pending
}

// FailUnresolved abandons every unit neither done nor failed — there is
// nothing left to run them on — and returns how many it failed.
func (l *Ledger) FailUnresolved() int {
	n := 0
	for ui := range l.States {
		if l.Fail(ui) {
			n++
		}
	}
	return n
}

// NextRound opens a recovery round and sleeps its capped exponential
// backoff, returning false if the context died while waiting.
func (l *Ledger) NextRound(ctx context.Context) bool {
	l.rounds++
	if l.backoff <= 0 {
		return ctx.Err() == nil
	}
	factor := min(1<<(l.rounds-1), maxBackoffFactor)
	t := time.NewTimer(l.backoff * time.Duration(factor))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// Rebalance spreads the pending units over live workers with LPT on their
// weights, like the initial assignment: out[i] lists the units of the
// i-th of the live workers.
func (l *Ledger) Rebalance(pending []int, live int) [][]int {
	weights := make([]int, len(pending))
	for i, ui := range pending {
		weights[i] = l.weight(ui)
	}
	out := workload.BalanceLPT(weights, live)
	for _, us := range out {
		for i, pi := range us {
			us[i] = pending[pi]
		}
	}
	return out
}

// Census counts the run's completeness from the unit states.
func (l *Ledger) Census() Completeness {
	comp := Completeness{Units: len(l.States), Failed: len(l.failures), WorkerDeaths: l.Deaths, RecoveryRounds: l.rounds}
	for i := range l.States {
		st := &l.States[i]
		if st.Attempts > 0 {
			comp.Attempted++
		}
		if st.Attempts > 1 {
			comp.Retries += st.Attempts - 1
		}
		if st.Done {
			comp.Succeeded++
		}
	}
	return comp
}

// Err is the run's *PartialError, or nil when no unit failed.
func (l *Ledger) Err() error {
	if len(l.failures) == 0 {
		return nil
	}
	return &PartialError{Failures: l.failures}
}

// detectRun is one fault-tolerant detection phase: the shared inputs plus
// the cross-round scheduler state.
type detectRun struct {
	ctx    context.Context
	cl     *cluster.Cluster
	topo   graph.Topology
	groups []*ruleGroup
	units  []workUnit
	opt    Options // normalized
	sink   Sink    // always non-nil: collect, callback, or pipe
	inj    *fault.Injector
	// prep runs at the start of every attempt on the executing worker —
	// disVal charges the unit's block shipment (prefetch or partial-match)
	// here, so a reassigned or retried unit re-ships to its new worker.
	prep func(w, ui int)

	mu   sync.Mutex // guards live, stopped and dead-worker writes to led
	led  *Ledger
	live []bool
	// counts[w] is the number of violations worker w delivered through the
	// sink — the engines charge the violation-return shipment off it.
	// Worker w is the only writer of counts[w] (ownership moves only
	// between rounds), so no lock is needed.
	counts  []int64
	stopped bool // the sink refused a violation; the whole run stops
}

// run executes the detection phase from the given initial assignment and
// returns the modeled span (summed across recovery supersteps), the
// completeness census, and the partial-failure error (nil when every unit
// succeeded or the run was cancelled/stopped first).
func (r *detectRun) run(assign workload.Assignment) (time.Duration, Completeness, error) {
	n := r.opt.N
	r.led = NewLedger(len(r.units), r.opt,
		func(ui int) int { return r.units[ui].group },
		func(ui int) int { return r.units[ui].Weight() })
	r.live = make([]bool, n)
	for i := range r.live {
		r.live[i] = true
	}
	r.counts = make([]int64, n)

	todo := make([][]int, n)
	copy(todo, assign)

	var span time.Duration
	for {
		// The superstep. Workers recover their own panics (keeping unit
		// context), so the cluster-level net stays unused here.
		busy, _ := r.cl.RunMeasured(func(w int) { r.worker(w, todo[w]) })
		span += cluster.MaxSpan(busy)
		if r.ctx.Err() != nil || r.stopped {
			// Cancelled or stream-stopped: unreached units are neither
			// succeeded nor failed; the caller reports ctx.Err() / nil.
			break
		}
		pending := r.led.Pending()
		if len(pending) == 0 {
			break
		}
		liveIdx := r.liveWorkers()
		if len(liveIdx) == 0 {
			// Nothing left to run on. Everything pending is abandoned.
			r.led.FailUnresolved()
			break
		}
		if !r.led.NextRound(r.ctx) {
			break // context died during backoff
		}
		todo = r.reassign(pending, liveIdx, n)
		r.cl.EndRound() // reassignment descriptor exchange
	}
	return span, r.led.Census(), r.led.Err()
}

// worker drains one worker's unit list for the current round. All panics —
// injected or genuine — are recovered at this level into a WorkerError
// that marks the worker dead and the in-flight unit failed.
func (r *detectRun) worker(w int, mine []int) {
	if len(mine) == 0 {
		return
	}
	det := newUnitDetector(r.topo, &cancelCheck{ctx: r.ctx}, r.inj, w)
	cur := -1      // unit in flight, for the recover path
	delivered := 0 // violations delivered by the in-flight attempt
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		werr := cluster.Recovered(w, cur, rec)
		r.mu.Lock()
		r.live[w] = false
		r.led.Deaths++
		if cur >= 0 {
			st := &r.led.States[cur]
			st.Emitted += delivered
			st.LastErr = werr
		}
		r.mu.Unlock()
	}()

	var skip, found int
	out := func(v Violation) bool {
		// Exactly-once across retries: per-unit enumeration is
		// deterministic, so the first `skip` violations of a retried unit
		// were already delivered by an earlier attempt. The skip-count
		// wrapper sits above the sink, so it holds for asynchronous
		// emission too — a violation counts as delivered the moment the
		// sink accepts it, whether that was an append, a callback, or a
		// buffered lane the consumer has not drained yet.
		found++
		if found <= skip {
			return true
		}
		if !r.sink.Emit(w, v) {
			return false
		}
		delivered++
		r.counts[w]++
		return true
	}

	for _, ui := range mine {
		if det.cancel.canceled() {
			return
		}
		u := r.units[ui]
		st := &r.led.States[ui]
		cur, delivered = ui, 0
		skip, found = st.Emitted, 0
		st.Attempts++
		det.unit = ui
		if r.prep != nil {
			r.prep(w, ui)
		}
		// The deadline covers the whole attempt, including the UnitStart
		// crossing: an injected straggler delay burns attempt time exactly
		// like a real stall would, so DelayUnit(d) + UnitDeadline < d
		// deterministically expires the first attempt.
		if d := r.opt.UnitDeadline; d > 0 {
			det.cancel.arm(time.Now().Add(d))
		}
		if r.inj != nil {
			r.inj.Cross(fault.UnitStart, w, ui)
		}
		ok := true
		if !det.cancel.expiredNow() {
			ok = det.detect(r.groups[u.group], u, !r.opt.NoOptimize, out)
		}
		st.Emitted += delivered
		expired := det.cancel.deadlineHit
		det.cancel.disarm()
		cur = -1
		if expired {
			// The attempt missed its deadline; the worker survives and the
			// unit goes back to the coordinator for a retry.
			st.LastErr = fmt.Errorf("unit %d (worker %d): %w", ui, w, context.DeadlineExceeded)
			continue
		}
		if det.cancel.hit {
			return // context cancelled: the run is over
		}
		if !ok {
			// A streaming yield returned false; every worker's next emit
			// fails through the shared sink.
			r.mu.Lock()
			r.stopped = true
			r.mu.Unlock()
			return
		}
		r.led.Succeed(ui)
	}
}

func (r *detectRun) liveWorkers() []int {
	var idx []int
	for w, ok := range r.live {
		if ok {
			idx = append(idx, w)
		}
	}
	return idx
}

// reassign places the pending units on the live workers (Ledger.Rebalance)
// and charges the descriptor reshipment to each receiving worker.
func (r *detectRun) reassign(pending, liveIdx []int, n int) [][]int {
	todo := make([][]int, n)
	for li, us := range r.led.Rebalance(pending, len(liveIdx)) {
		w := liveIdx[li]
		todo[w] = us
		if len(us) > 0 {
			r.cl.Ship(cluster.Coordinator, w, int64(len(us))*unitDescriptorBytes)
		}
	}
	return todo
}

// engineRecover is the last-resort safety net wrapped around every engine
// body: a panic on the coordinator path (estimation, assignment, shipping)
// becomes an error return instead of tearing down the process. Worker
// panics never reach it — the scheduler recovers those with unit context.
func engineRecover(err *error) {
	if rec := recover(); rec != nil {
		*err = cluster.Recovered(cluster.Coordinator, -1, rec)
	}
}
