package dist

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"gfd/internal/core"
	"gfd/internal/fault"
	"gfd/internal/graph"
	"gfd/internal/store"
	"gfd/internal/validate"
)

// Environment contract between coordinator and worker child.
const (
	// EnvWorker marks a process as a dist worker: any binary that calls
	// MaybeWorker early in main becomes spawnable as a worker with no
	// flags of its own.
	EnvWorker = "GFD_DIST_WORKER"
	// EnvFault carries an encoded fault.Plan (Plan.Encode) so seeded
	// process faults replay deterministically in the child. Respawned
	// workers are started without it — a replacement process must not
	// re-die on the same injected fault.
	EnvFault = "GFD_DIST_FAULT"
)

// Worker exit codes the coordinator maps back to failure causes. Anything
// nonzero is a death; these make injected faults recognizable in
// WorkerError text and tests.
const (
	exitProtocol  = 1  // protocol/internal error
	exitKilled    = 42 // injected KillProcess fired
	exitTruncated = 43 // injected TruncateMessage fired (exit mid-frame)
)

// vioBatch is how many violations a worker coalesces per fVio frame.
const vioBatch = 64

// MaybeWorker turns the current process into a dist worker when the
// environment says so, never returning in that case (the process exits
// with the worker's status). Call it first thing in main() — and in
// TestMain for any test binary the chaos suite re-executes.
func MaybeWorker() {
	if os.Getenv(EnvWorker) == "" {
		return
	}
	os.Exit(workerMain(os.Stdin, os.Stdout, os.Stderr))
}

// workerMain is the worker protocol loop: HELLO → open shard → READY →
// (ASSIGN → (VIO* → DONE) per unit of the batch)* → SHUTDOWN → CENSUS.
// The coordinator keeps a window of units in flight, so further ASSIGN
// batches wait in the pipe while a batch runs. It deliberately recovers
// nothing: a panic — injected or genuine — crashes the process with a
// stack on stderr, which is exactly the failure mode the coordinator is
// built to detect and survive.
func workerMain(stdin io.Reader, stdout, stderr io.Writer) int {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "gfd-dist-worker: "+format+"\n", args...)
		return exitProtocol
	}
	fr := &frameReader{r: bufio.NewReaderSize(stdin, 1<<16)}
	typ, payload, err := fr.read()
	if err != nil {
		return fail("reading hello: %v", err)
	}
	if typ != fHello {
		return fail("first frame is type %d, want hello", typ)
	}
	h, err := decodeHello(payload)
	if err != nil {
		return fail("decoding hello: %v", err)
	}
	if h.proto != protoVersion {
		return fail("protocol version %d, want %d", h.proto, protoVersion)
	}
	plan, err := fault.DecodePlan(os.Getenv(EnvFault))
	if err != nil {
		return fail("decoding fault plan: %v", err)
	}
	inj := plan.Arm(h.workers)
	fw := &frameWriter{
		w:      bufio.NewWriterSize(stdout, 1<<16),
		inj:    inj,
		worker: h.worker,
		onTruncate: func() {
			os.Exit(exitTruncated)
		},
	}

	ctx := context.Background()
	loaded, err := store.Open(ctx, h.shardPath)
	if err != nil {
		return fail("opening shard %s: %v", h.shardPath, err)
	}
	defer loaded.Close()
	snap := loaded.Snapshot()
	if snap.NumNodes() != h.numNodes {
		return fail("shard %s holds %d nodes, manifest says %d", h.shardPath, snap.NumNodes(), h.numNodes)
	}
	set, err := core.ParseRules(strings.NewReader(h.rules))
	if err != nil {
		return fail("parsing shipped rules: %v", err)
	}
	// The overlay receives halo patches; the shard snapshot beneath it is
	// the mmap'd file. Every shard carries the full (global) symbol table,
	// so halo interning never mints new codes and enumeration order stays
	// identical across workers — the retry dedupe depends on it.
	ov := graph.NewOverlay(snap.Graph())
	b := validate.NewBundleOver(snap.Graph(), ov, set, nil)
	// The coordinator shipped the post-reduction set and its grouping
	// flags; NoReduce keeps the worker from reducing again, and the flags
	// reproduce the exact group indices the unit descriptors reference.
	opt := validate.Options{
		NoOptimize:     !h.combine,
		NoReduce:       true,
		ArbitraryPivot: h.arbPivot,
	}
	runner := validate.NewUnitRunner(ctx, b, opt, inj, h.worker)
	if h.groups != runner.Groups() {
		return fail("rebuilt %d rule groups, coordinator has %d", runner.Groups(), h.groups)
	}
	if err := fw.write(fReady, encodeReady(readyMsg{numNodes: snap.NumNodes(), groups: runner.Groups()})); err != nil {
		return fail("writing ready: %v", err)
	}

	hb := h.heartbeat
	if hb <= 0 {
		hb = DefaultHeartbeat
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		t := time.NewTicker(hb)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if fw.write(fHeartbeat, nil) != nil {
					return // coordinator gone; the main loop will notice
				}
			}
		}
	}()

	loop := newUnitLoop(runner, fw)
	for {
		typ, payload, err := fr.read()
		if err != nil {
			if err == io.EOF {
				return 0 // coordinator closed the pipe: clean shutdown
			}
			return fail("reading frame: %v", err)
		}
		switch typ {
		case fAssign:
			m, err := decodeAssign(payload)
			if err != nil {
				return fail("decoding assign: %v", err)
			}
			if err := applyHalo(ov, m.halo); err != nil {
				return fail("patching halo: %v", err)
			}
			for _, au := range m.units {
				// Process-kill faults fire at unit start, before any work —
				// the moment a real OOM-kill or node loss is most likely.
				if inj.ProcKill(h.worker, au.unit.ID) {
					return exitKilled
				}
				if err := loop.run(au); err != nil {
					return fail("%v", err)
				}
			}
		case fShutdown:
			if err := fw.write(fCensus, encodeCensus(loop.census)); err != nil {
				return fail("writing census: %v", err)
			}
			return 0
		default:
			return fail("unexpected frame type %d", typ)
		}
	}
}

// unitLoop runs the units of ASSIGN batches one after another and reports
// each: its violations in fVio frames of up to vioBatch, then one fDone.
// Its buffers live across units, so the steady state allocates only the
// encoded frames.
type unitLoop struct {
	runner *validate.UnitRunner
	fw     *frameWriter
	census censusMsg

	unit      int                           // unit being run
	batch     []validate.Violation          // violations not yet flushed
	delivered int64                         // violations flushed for the unit
	emitFn    func(validate.Violation) bool // emit, bound once instead of per unit
}

func newUnitLoop(runner *validate.UnitRunner, fw *frameWriter) *unitLoop {
	l := &unitLoop{runner: runner, fw: fw, batch: make([]validate.Violation, 0, vioBatch)}
	l.emitFn = l.emit
	return l
}

// run executes one unit and writes its frames.
func (l *unitLoop) run(au assignedUnit) error {
	l.unit = au.unit.ID
	l.delivered = 0
	start := time.Now()
	found, err := l.runner.Run(au.unit, au.skip, l.emitFn)
	if err != nil {
		return fmt.Errorf("running unit %d: %w", l.unit, err)
	}
	if !l.flush() {
		return fmt.Errorf("writing violations for unit %d", l.unit)
	}
	done := doneMsg{unit: l.unit, found: found, delivered: l.delivered, wall: time.Since(start)}
	if err := l.fw.write(fDone, encodeDone(done)); err != nil {
		return fmt.Errorf("writing done for unit %d: %w", l.unit, err)
	}
	l.census.unitsRun++
	l.census.delivered += l.delivered
	return nil
}

func (l *unitLoop) emit(v validate.Violation) bool {
	l.batch = append(l.batch, v)
	if len(l.batch) >= vioBatch {
		return l.flush()
	}
	return true
}

func (l *unitLoop) flush() bool {
	if len(l.batch) == 0 {
		return true
	}
	if l.fw.write(fVio, encodeVio(vioMsg{unit: l.unit, vios: l.batch})) != nil {
		return false
	}
	l.delivered += int64(len(l.batch))
	l.batch = l.batch[:0]
	return true
}

// applyHalo patches the shipped non-owned block nodes into the worker's
// overlay: attribute tuples, then full adjacency in both directions.
// Edges already present — because the other endpoint is owned, or because
// an earlier unit's halo introduced them — are skipped via HasEdge, so
// re-shipment after respawn stays idempotent.
func applyHalo(ov *graph.Overlay, halo []haloNode) error {
	syms := ov.Syms()
	for _, h := range halo {
		for _, kv := range h.attrs {
			ov.SetAttr(h.id, kv[0], kv[1])
		}
		for _, e := range h.out {
			if l := syms.Lookup(e.label); l != graph.NoSym && ov.HasEdge(h.id, e.to, l) {
				continue
			}
			if err := ov.AddEdge(h.id, e.to, e.label); err != nil {
				return err
			}
		}
		for _, e := range h.in {
			if l := syms.Lookup(e.label); l != graph.NoSym && ov.HasEdge(e.to, h.id, l) {
				continue
			}
			if err := ov.AddEdge(e.to, h.id, e.label); err != nil {
				return err
			}
		}
	}
	return nil
}
