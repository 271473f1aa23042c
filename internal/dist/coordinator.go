package dist

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strings"
	"sync"
	"time"

	"gfd/internal/cluster"
	"gfd/internal/core"
	"gfd/internal/fragment"
	"gfd/internal/graph"
	"gfd/internal/validate"
)

// Supervision defaults.
const (
	// DefaultHeartbeat is the worker heartbeat period when
	// DistOptions.HeartbeatInterval is unset; a worker silent for three
	// periods is declared lost and killed.
	DefaultHeartbeat = 200 * time.Millisecond
	// DefaultHandshakeTimeout bounds spawn-to-READY (shard open + rule
	// parse + group rebuild).
	DefaultHandshakeTimeout = 10 * time.Second
	// DefaultMaxRespawns is how many replacement processes a worker slot
	// gets when DistOptions.MaxRespawns is 0.
	DefaultMaxRespawns = 1
	// heartbeatMisses is how many silent heartbeat periods the liveness
	// monitor tolerates before killing a worker.
	heartbeatMisses = 3
	// shutdownGrace bounds the drain phase: SHUTDOWN → CENSUS → exit per
	// worker; slower workers are killed, never leaked.
	shutdownGrace = 3 * time.Second
	// window is how many units the coordinator keeps in flight per
	// worker. A refill is one ASSIGN frame, sent once half the window has
	// drained, so the worker always has queued work and the pipe round
	// trip is paid per batch, not per unit. On the dist-shards benchmark
	// a window of 8 was about 35% slower; 256 was under 10% faster but
	// quadruples what a worker still runs after an early stop before it
	// reads SHUTDOWN.
	window = 64
)

// errDegraded is the internal signal that no worker process could be had
// at all and the run should fall back to the in-process fragmented engine.
var errDegraded = errors.New("dist: no worker processes available")

// Detect runs distributed detection over the shards named by
// opt.Dist.ManifestPath, collecting into Result.Violations.
func Detect(ctx context.Context, b *validate.Bundle, opt validate.Options) (*validate.Result, error) {
	return DetectB(ctx, b, opt, nil)
}

// DetectB is the distributed engine: it loads the shard manifest, spawns
// one worker process per shard (each mmapping its own .gfds and running
// the compiled engines), streams each worker its queue in windowed ASSIGN
// batches with halo shipping over the wire protocol, and supervises the
// fleet — heartbeat and per-unit-deadline liveness, dead-process unit
// reassignment to survivors under Options.Retry budgets with capped
// backoff, capped respawn, and exactly-once retry semantics via
// deterministic skip counts. Each worker has up to a window of units in
// flight but runs them one at a time, so a death charges only the unit it
// was running. Exhausted budgets surface as *validate.PartialError with
// Result.Completeness carrying the census; when no worker process can be
// obtained at all and nothing was delivered yet, the run degrades to the
// in-process fragmented engine over the same partition.
//
// The bundle's topology must be the frozen, unmutated snapshot the shards
// were written from (NodeIDs, symbol codes, and block shapes must agree);
// a session with pending overlay mutations must re-shard first.
func DetectB(ctx context.Context, b *validate.Bundle, opt validate.Options, sink validate.Sink) (res *validate.Result, err error) {
	res = &validate.Result{}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	opt = opt.Normalized()
	if opt.Dist == nil || opt.Dist.ManifestPath == "" {
		return res, errors.New("dist: EngineDistributed requires Options.Dist.ManifestPath")
	}
	m, err := LoadManifest(opt.Dist.ManifestPath)
	if err != nil {
		return res, err
	}
	snap, ok := b.Topo().(*graph.Snapshot)
	if !ok {
		return res, errors.New("dist: bundle topology is not a frozen snapshot; re-shard after mutations")
	}
	if snap.NumNodes() != m.NumNodes {
		return res, fmt.Errorf("dist: snapshot holds %d nodes, manifest %s says %d",
			snap.NumNodes(), opt.Dist.ManifestPath, m.NumNodes)
	}
	opt.N = m.Workers // the shard layout fixes the worker count

	start := time.Now()
	cl := cluster.New(opt.N, opt.Cost)

	estStart := time.Now()
	plan, err := b.DistPlan(cl, opt)
	if err != nil {
		return res, err
	}
	res.Rules = plan.Set.Len()
	res.Groups = plan.Groups
	res.Units = len(plan.Units)
	res.SplitUnits = plan.Split
	res.TotalWeight = plan.TotalWeight
	res.Makespan = plan.Makespan
	res.EstimateSpan = plan.EstimateSpan
	res.EstimateWall = time.Since(estStart)
	if err := ctx.Err(); err != nil {
		return res, err
	}

	var rules strings.Builder
	if err := core.WriteRules(&rules, plan.Set); err != nil {
		return res, err
	}

	origSink := sink
	var collect *validate.CollectSink
	if sink == nil {
		collect = validate.NewCollectSink(opt.N)
		sink = collect
	}

	r := &coordRun{
		ctx:      ctx,
		b:        b,
		snap:     snap,
		manifest: m,
		plan:     plan,
		opt:      opt,
		cl:       cl,
		sink:     sink,
		rules:    rules.String(),
		events:   make(chan event, 1024),
	}
	detStart := time.Now()
	span, comp, runErr := r.run()
	res.DetectWall = time.Since(detStart)
	res.DetectSpan = span
	res.Completeness = comp

	if errors.Is(runErr, errDegraded) {
		// Worker processes are unobtainable and nothing was delivered:
		// fall back to the in-process fragmented engine over the same
		// partition. The fallback may thaw the graph; correctness over
		// cold-start purity once the distributed path is gone. It gets the
		// caller's original sink (possibly nil) so it assembles its own
		// Result, including the collected violations.
		strat, _ := fragment.ParseStrategy(m.Strategy)
		frag := fragment.Partition(b.Graph(), m.Workers, strat)
		return validate.DisValB(ctx, b, frag, opt, origSink)
	}

	st := cl.Stats()
	res.BytesShipped = st.TotalBytes
	res.Messages = st.TotalMsgs
	res.Comm = cl.CommTime()
	if collect != nil {
		res.Violations = collect.Report()
		res.Violations.Sort()
	}
	res.Wall = time.Since(start)
	if cerr := ctx.Err(); cerr != nil {
		return res, cerr
	}
	return res, runErr
}

// event is what per-worker reader goroutines deliver to the coordinator
// loop: a decoded-frame envelope or a death notice. Frames buffered
// before a death are always delivered first (the reader emits the death
// only after the read loop ends), so violation accounting at reassignment
// time is exact.
type event struct {
	w       int
	gen     int
	typ     byte
	payload []byte
	death   *deathNotice
}

type deathNotice struct {
	waitErr error  // cmd.Wait result: exit status or wait failure
	readErr error  // what ended the read loop (EOF, torn frame, ...)
	tail    string // last stderr output — panic stacks land here
}

// procState is one worker slot across incarnations.
type procState struct {
	id    int
	shard string

	cmd      *exec.Cmd
	out      chan outFrame // to the incarnation's sender goroutine; nil once closed
	tail     *tailBuffer
	gen      int // incarnation counter; stale-gen events are dropped
	alive    bool
	ready    bool
	spawned  time.Time
	lastSeen time.Time
	killed   error // why the liveness monitor killed it; nil for self-deaths

	queue    []int     // unit IDs not yet sent, in run order
	inflight []int     // unit IDs sent, in run order; inflight[0] is running
	headAt   time.Time // when inflight[0] became the head: its UnitDeadline clock
	shipped  []bool    // halo nodes already shipped to this incarnation
	respawns int
	busy     time.Duration // sum of reported unit walls — the modeled span basis
}

// outFrame is one frame queued for a worker's stdin.
type outFrame struct {
	typ     byte
	payload []byte
}

// closeOut ends the incarnation's sender goroutine once it has written
// what is queued; the sender then closes the worker's stdin.
func (p *procState) closeOut() {
	if p.out != nil {
		close(p.out)
		p.out = nil
	}
}

type coordRun struct {
	ctx      context.Context
	b        *validate.Bundle
	snap     *graph.Snapshot
	manifest *Manifest
	plan     *validate.DistPlan
	opt      validate.Options
	cl       *cluster.Cluster
	sink     validate.Sink
	rules    string
	events   chan event

	procs []*procState
	// Scratch reused by every dispatch: the refill being built (halo
	// nodes keep their inner slices across refills), its encoding, and
	// the block of the unit whose halo is being collected.
	batch  assignMsg
	enc    []byte
	block  *graph.EpochSet
	sorted []graph.NodeID

	led      *validate.Ledger // per-unit retry ledger, shared policy with the in-process scheduler
	resolved int              // units done or failed
	stopped  bool             // sink refused a violation; drain and stop cleanly
	anyEmit  bool

	wg sync.WaitGroup // reader goroutines
}

// run executes the distributed detection phase. It returns the modeled
// detection span, the completeness census, and the run error: nil,
// ctx.Err(), a *validate.PartialError, or errDegraded.
func (r *coordRun) run() (time.Duration, validate.Completeness, error) {
	n := r.opt.N
	units := r.plan.Units
	r.led = validate.NewLedger(len(units), r.opt,
		func(ui int) int { return units[ui].Group },
		func(ui int) int { return int(units[ui].Weight()) })
	r.procs = make([]*procState, n)
	r.block = graph.NewEpochSet(r.snap.NumNodes())
	faultEnv := r.opt.Inject.Encode()
	for w := 0; w < n; w++ {
		r.procs[w] = &procState{id: w, shard: r.manifest.Shards[w]}
		r.procs[w].queue = append(r.procs[w].queue, r.plan.Assign[w]...)
	}
	// Always reap every child, whatever path exits this function. The
	// drain keeps reader goroutines from blocking on a full events
	// channel while we wait for them and the senders to finish.
	defer func() {
		for _, p := range r.procs {
			if p.cmd != nil && p.cmd.Process != nil {
				p.cmd.Process.Kill()
			}
			p.closeOut()
		}
		done := make(chan struct{})
		go func() {
			r.wg.Wait()
			close(done)
		}()
		for {
			select {
			case <-r.events:
			case <-done:
				return
			}
		}
	}()

	spawned := 0
	for w := 0; w < n; w++ {
		if err := r.spawn(w, faultEnv); err != nil {
			r.procs[w].alive = false
			r.procs[w].killed = fmt.Errorf("spawn failed: %w", err)
			continue
		}
		spawned++
	}
	if spawned == 0 {
		return 0, r.led.Census(), errDegraded
	}
	// Queues of workers that never spawned move to the survivors.
	var orphaned []int
	for _, p := range r.procs {
		if !p.alive {
			orphaned = append(orphaned, p.queue...)
			p.queue = nil
		}
	}
	if len(orphaned) > 0 {
		r.reassign(orphaned)
	}

	hb := r.opt.Dist.HeartbeatInterval
	if hb <= 0 {
		hb = DefaultHeartbeat
	}
	handshake := r.opt.Dist.HandshakeTimeout
	if handshake <= 0 {
		handshake = DefaultHandshakeTimeout
	}
	tick := hb / 2
	if d := r.opt.UnitDeadline; d > 0 && d/2 < tick {
		tick = d / 2
	}
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()

	var ctxErr error
loop:
	for r.resolved < len(units) && !r.stopped {
		select {
		case <-r.ctx.Done():
			ctxErr = r.ctx.Err()
			break loop
		case ev := <-r.events:
			r.handle(ev)
		case <-ticker.C:
			r.checkLiveness(hb, handshake)
		}
		if r.liveCount() == 0 {
			if !r.progress() {
				return 0, r.led.Census(), errDegraded
			}
			// Some units are unreachable: everything unresolved fails.
			r.resolved += r.led.FailUnresolved()
			break loop
		}
	}

	r.shutdown()

	var span time.Duration
	for _, p := range r.procs {
		if p.busy > span {
			span = p.busy
		}
	}
	if ctxErr != nil {
		return span, r.led.Census(), ctxErr
	}
	return span, r.led.Census(), r.led.Err()
}

// handle processes one event from a worker reader.
func (r *coordRun) handle(ev event) {
	p := r.procs[ev.w]
	if ev.gen != p.gen {
		return // an earlier incarnation's leftovers
	}
	if ev.death != nil {
		r.handleDeath(ev.w, ev.death)
		return
	}
	p.lastSeen = time.Now()
	switch ev.typ {
	case fReady:
		m, err := decodeReady(ev.payload)
		if err != nil || m.numNodes != r.manifest.NumNodes || m.groups != r.plan.Groups {
			p.killed = fmt.Errorf("dist: worker %d handshake mismatch (%v)", ev.w, err)
			r.kill(p)
			return
		}
		r.cl.Ship(ev.w, cluster.Coordinator, frameOverhead+int64(len(ev.payload)))
		p.ready = true
		r.dispatch(p)
	case fVio:
		m, err := decodeVio(ev.payload)
		if err != nil {
			p.killed = fmt.Errorf("dist: worker %d sent undecodable violations: %w", ev.w, err)
			r.kill(p)
			return
		}
		if len(p.inflight) == 0 || m.unit != p.inflight[0] {
			p.killed = fmt.Errorf("dist: worker %d sent violations out of protocol (unit %d)", ev.w, m.unit)
			r.kill(p)
			return
		}
		r.cl.Ship(ev.w, cluster.Coordinator, frameOverhead+int64(len(ev.payload)))
		st := &r.led.States[m.unit]
		for _, v := range m.vios {
			if !r.sink.Emit(ev.w, v) {
				r.stopped = true
				return
			}
			st.Emitted++
			r.anyEmit = true
		}
	case fDone:
		m, err := decodeDone(ev.payload)
		if err != nil || len(p.inflight) == 0 || m.unit != p.inflight[0] {
			p.killed = fmt.Errorf("dist: worker %d done frame out of protocol (unit %d, %v)", ev.w, m.unit, err)
			r.kill(p)
			return
		}
		r.cl.Ship(ev.w, cluster.Coordinator, frameOverhead+int64(len(ev.payload)))
		if r.led.Succeed(m.unit) {
			r.resolved++
		}
		p.busy += m.wall
		p.inflight = p.inflight[:copy(p.inflight, p.inflight[1:])]
		r.startHead(p)
		r.dispatch(p)
	case fHeartbeat:
		// lastSeen already refreshed above.
	case fCensus:
		// Arrives during shutdown; the drain loop consumes it there. One
		// out of band is harmless.
	}
}

// handleDeath marks a worker dead, converts its exit into the running
// unit's failure cause, requeues its pending work, respawns if the budget
// allows, and reassigns with backoff.
func (r *coordRun) handleDeath(w int, d *deathNotice) {
	p := r.procs[w]
	if !p.alive {
		return
	}
	p.alive = false
	p.ready = false
	r.led.Deaths++

	p.closeOut()
	head := -1
	if len(p.inflight) > 0 {
		head = p.inflight[0]
	}
	cause := p.killed
	if cause == nil {
		cause = &cluster.WorkerError{Worker: w, Unit: head, Panic: describeExit(d)}
	}
	var pending []int
	if head >= 0 {
		// Only the head was running; it alone is charged the attempt.
		// The units behind it never started and go back uncharged.
		st := &r.led.States[head]
		if !st.Done && !st.Failed {
			st.LastErr = fmt.Errorf("unit %d (worker %d): %w", head, w, cause)
			if r.led.Exhausted(head) {
				r.led.Fail(head)
				r.resolved++
			} else {
				pending = append(pending, head)
			}
		}
		pending = append(pending, p.inflight[1:]...)
		p.inflight = p.inflight[:0]
	}
	pending = append(pending, p.queue...)
	p.queue = nil

	maxRespawns := r.opt.Dist.MaxRespawns
	if maxRespawns == 0 {
		maxRespawns = DefaultMaxRespawns
	}
	if maxRespawns > 0 && p.respawns < maxRespawns && r.ctx.Err() == nil {
		p.respawns++
		// Replacement processes never re-arm the fault plan: a real
		// machine does not re-crash on the injected schedule either, and
		// a deterministic re-kill would make every recoverable plan
		// unrecoverable.
		if err := r.spawn(w, ""); err != nil {
			p.killed = fmt.Errorf("respawn failed: %w", err)
		}
	}

	if len(pending) > 0 && r.liveCount() > 0 {
		r.led.NextRound(r.ctx)
		r.reassign(pending)
	} else if len(pending) > 0 {
		// keep them queued on the dead worker so the all-dead sweep in
		// runImpl fails them with accurate attempt counts.
		p.queue = pending
	}
}

// checkLiveness kills workers that went silent, failed to handshake, or
// blew the per-unit deadline. The kill only initiates death: the reader's
// death notice (which follows the last buffered frames) drives recovery,
// so violations already on the wire are never lost.
func (r *coordRun) checkLiveness(hb, handshake time.Duration) {
	now := time.Now()
	for _, p := range r.procs {
		if !p.alive || p.killed != nil {
			continue
		}
		if !p.ready {
			if now.Sub(p.spawned) > handshake {
				p.killed = fmt.Errorf("dist: worker %d handshake timed out after %v", p.id, handshake)
				r.kill(p)
			}
			continue
		}
		if d := r.opt.UnitDeadline; d > 0 && len(p.inflight) > 0 && now.Sub(p.headAt) > d {
			p.killed = fmt.Errorf("unit %d (worker %d): %w", p.inflight[0], p.id, context.DeadlineExceeded)
			r.kill(p)
			continue
		}
		if now.Sub(p.lastSeen) > time.Duration(heartbeatMisses)*hb {
			p.killed = fmt.Errorf("dist: worker %d lost (no frames for %v)", p.id, now.Sub(p.lastSeen))
			r.kill(p)
		}
	}
}

func (r *coordRun) kill(p *procState) {
	if p.cmd != nil && p.cmd.Process != nil {
		p.cmd.Process.Kill()
	}
}

// dispatch refills a ready worker's window once half of it has drained:
// the next queued units go out as one ASSIGN frame carrying the union of
// their halos. The worker runs them in order and reports each with its
// own VIO and DONE frames, so the ledger still tracks exactly one running
// unit per worker — the head of inflight. A refill depends only on the
// worker's own DONE count, so a fault-free run always sends the same
// batches.
func (r *coordRun) dispatch(p *procState) {
	if !p.alive || !p.ready || r.stopped || len(p.inflight) > window/2 {
		return
	}
	m := &r.batch
	m.units, m.halo = m.units[:0], m.halo[:0]
	for len(p.queue) > 0 && len(p.inflight)+len(m.units) < window {
		ui := p.queue[0]
		p.queue = p.queue[1:]
		st := &r.led.States[ui]
		if st.Done || st.Failed {
			continue
		}
		m.units = append(m.units, assignedUnit{unit: r.plan.Units[ui], skip: int64(st.Emitted)})
		r.appendHalo(m, p, ui)
	}
	if len(m.units) == 0 {
		return
	}
	idle := len(p.inflight) == 0
	for _, au := range m.units {
		p.inflight = append(p.inflight, au.unit.ID)
	}
	if idle {
		r.startHead(p)
	}
	r.enc = encodeAssign(r.enc[:0], *m)
	payload := slices.Clone(r.enc) // the sender owns it until written
	r.cl.Ship(cluster.Coordinator, p.id, frameOverhead+int64(len(payload)))
	p.out <- outFrame{typ: fAssign, payload: payload}
}

// startHead charges the attempt of the unit now at the head of the
// worker's window — the one it is running — and starts its UnitDeadline
// clock.
func (r *coordRun) startHead(p *procState) {
	if len(p.inflight) == 0 {
		return
	}
	r.led.States[p.inflight[0]].Attempts++
	p.headAt = time.Now()
}

// appendHalo adds to the refill the unit's block nodes this worker does
// not own and has not been shipped yet this incarnation: attribute tuples
// plus full adjacency, from the coordinator's snapshot. Because every
// shard keeps the full node/class/symbol tables, the halo is the only
// data a worker is missing, and after patching, its local block
// reproduces the coordinator's exactly.
func (r *coordRun) appendHalo(m *assignMsg, p *procState, ui int) {
	r.plan.BlockInto(r.block, ui)
	r.sorted = append(r.sorted[:0], r.block.Members()...)
	slices.Sort(r.sorted)
	syms := r.snap.Syms()
	for _, v := range r.sorted {
		if r.manifest.Owner(v) == p.id || p.shipped[v] {
			continue
		}
		p.shipped[v] = true
		if len(m.halo) == cap(m.halo) {
			m.halo = append(m.halo, haloNode{})
		} else {
			m.halo = m.halo[:len(m.halo)+1]
		}
		h := &m.halo[len(m.halo)-1]
		h.id = v
		h.attrs, h.out, h.in = h.attrs[:0], h.out[:0], h.in[:0]
		for _, pr := range r.snap.AttrPairs(v) {
			h.attrs = append(h.attrs, [2]string{syms.Name(pr.Name), syms.Name(pr.Val)})
		}
		for _, e := range r.snap.Out(v) {
			h.out = append(h.out, haloEdge{to: e.To, label: syms.Name(e.Label)})
		}
		for _, e := range r.snap.In(v) {
			h.in = append(h.in, haloEdge{to: e.To, label: syms.Name(e.Label)})
		}
	}
}

// reassign places pending units on the live workers (Ledger.Rebalance)
// and kicks idle ones.
func (r *coordRun) reassign(pending []int) {
	var live []*procState
	for _, p := range r.procs {
		if p.alive {
			live = append(live, p)
		}
	}
	if len(live) == 0 {
		return
	}
	for li, us := range r.led.Rebalance(pending, len(live)) {
		live[li].queue = append(live[li].queue, us...)
	}
	for _, p := range live {
		r.dispatch(p)
	}
}

func (r *coordRun) liveCount() int {
	n := 0
	for _, p := range r.procs {
		if p.alive {
			n++
		}
	}
	return n
}

// progress reports whether the run achieved anything a fallback would
// duplicate: a completed unit or a delivered violation.
func (r *coordRun) progress() bool {
	return r.anyEmit || r.led.Census().Succeeded > 0
}

// shutdown drains the fleet: SHUTDOWN to every live worker (its sender
// then closes the pipe), wait for each census (bounded), and reap.
// Workers that ignore the grace period are killed — the coordinator never
// leaks processes.
func (r *coordRun) shutdown() {
	waiting := 0
	for _, p := range r.procs {
		if !p.alive || !p.ready {
			continue
		}
		p.out <- outFrame{typ: fShutdown}
		p.closeOut()
		r.cl.Ship(cluster.Coordinator, p.id, frameOverhead)
		waiting++
	}
	deadline := time.NewTimer(shutdownGrace)
	defer deadline.Stop()
	for waiting > 0 {
		select {
		case ev := <-r.events:
			p := r.procs[ev.w]
			if ev.gen != p.gen {
				continue
			}
			if ev.death != nil {
				if p.alive {
					p.alive = false
					waiting--
				}
				continue
			}
			if ev.typ == fCensus {
				r.cl.Ship(ev.w, cluster.Coordinator, frameOverhead+int64(len(ev.payload)))
				if p.alive {
					p.alive = false
					waiting--
				}
			}
		case <-deadline.C:
			waiting = 0
		}
	}
	// The deferred reaper in runImpl kills and waits whatever is left.
}

// spawn starts (or restarts) worker w's process: pipes wired, stderr
// tailed, HELLO queued. The reader goroutine owns cmd.Wait — it emits
// the death notice after the last buffered frame, which is what makes
// violation accounting at death exact.
func (r *coordRun) spawn(w int, faultEnv string) error {
	p := r.procs[w]
	argv := r.opt.Dist.Command
	if len(argv) == 0 {
		exe, err := os.Executable()
		if err != nil {
			return err
		}
		argv = []string{exe}
	}
	cmd := exec.CommandContext(r.ctx, argv[0], argv[1:]...)
	cmd.Env = append(os.Environ(), EnvWorker+"=1")
	if faultEnv != "" {
		cmd.Env = append(cmd.Env, EnvFault+"="+faultEnv)
	}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	tail := &tailBuffer{}
	cmd.Stderr = tail
	if err := cmd.Start(); err != nil {
		return err
	}
	p.gen++
	p.cmd = cmd
	p.tail = tail
	// Sends to out never block: it holds at most a HELLO, a SHUTDOWN and
	// one ASSIGN per unit in flight, since a queued ASSIGN's units are all
	// still in flight.
	p.out = make(chan outFrame, window+2)
	p.alive = true
	p.ready = false
	p.killed = nil
	p.inflight = p.inflight[:0]
	p.spawned = time.Now()
	p.lastSeen = p.spawned
	p.shipped = make([]bool, r.manifest.NumNodes)

	hb := r.opt.Dist.HeartbeatInterval
	if hb <= 0 {
		hb = DefaultHeartbeat
	}
	hello := encodeHello(helloMsg{
		proto:     protoVersion,
		worker:    w,
		workers:   r.opt.N,
		numNodes:  r.manifest.NumNodes,
		heartbeat: hb,
		combine:   r.plan.Combine,
		arbPivot:  r.plan.ArbitraryPivot,
		shardPath: p.shard,
		rules:     r.rules,
		groups:    r.plan.Groups,
	})
	r.cl.Ship(cluster.Coordinator, w, frameOverhead+int64(len(hello)))

	gen := p.gen
	r.wg.Add(2)
	// The sender owns the worker's stdin, so a worker that stops reading
	// stalls only its own queue, never the coordinator loop. After a
	// failed write it discards until closeOut.
	go func(out <-chan outFrame) {
		defer r.wg.Done()
		defer stdin.Close()
		fw := &frameWriter{w: bufio.NewWriterSize(stdin, 1<<16)}
		var err error
		for f := range out {
			if err == nil {
				err = fw.write(f.typ, f.payload)
			}
		}
	}(p.out)
	go func() {
		defer r.wg.Done()
		fr := &frameReader{r: bufio.NewReaderSize(stdout, 1<<16)}
		for {
			typ, payload, err := fr.read()
			if err != nil {
				waitErr := cmd.Wait()
				r.events <- event{w: w, gen: gen, death: &deathNotice{waitErr: waitErr, readErr: err, tail: tail.String()}}
				return
			}
			r.events <- event{w: w, gen: gen, typ: typ, payload: payload}
		}
	}()
	// A HELLO the child never reads means it died instantly; the reader's
	// death notice handles it.
	p.out <- outFrame{typ: fHello, payload: hello}
	return nil
}

// describeExit renders a death notice into the WorkerError panic slot.
func describeExit(d *deathNotice) string {
	s := "process died"
	if d.waitErr != nil {
		s = d.waitErr.Error()
	}
	if d.readErr != nil && !errors.Is(d.readErr, io.EOF) {
		s += " (" + d.readErr.Error() + ")"
	}
	if tail := strings.TrimSpace(d.tail); tail != "" {
		if len(tail) > 512 {
			tail = tail[len(tail)-512:]
		}
		s += ": " + tail
	}
	return s
}

// tailBuffer keeps the last few KB written to it — enough stderr to carry
// a panic stack into a WorkerError without unbounded growth.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

const tailCap = 8 << 10

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > tailCap {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-tailCap:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}
