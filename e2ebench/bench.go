package main

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"

	"gfd"
	"gfd/internal/core"
	"gfd/internal/graph"
	"gfd/internal/incremental"
)

// bench is the closed-loop client of one run: one goroutine that sends
// the next op only after the previous one completed. It holds the live
// state of the last set-up (session, prepared rule set, detector) and the
// reference every op is checked against.
type bench struct {
	w     workloadSpec
	dir   string
	opt   gfd.Options
	ref   []gfd.Violation // EngineSequential reference, sorted by cmpViolation
	tr    *tracer         // nil while untraced
	alloc *allocCounter
	rss   *rssSampler // running during the op loop
	log   io.Writer   // where op failures are reported

	sess   *gfd.Session
	prep   *gfd.Prepared
	loaded *gfd.LoadedSnapshot
	det    *incremental.Detector
	g      *graph.Graph

	// update-mix: the batch stream, the next batch, and the snapshot-build
	// count of the current round's graph when the round began.
	updates     [][]incremental.Update
	next        int
	roundBuilds int
	rounds      []roundCounts
	cur         roundCounts

	got []gfd.Violation // per-op drain buffer, reused
	inc []gfd.Violation // update-mix: the detector's report, reused
}

// roundCounts are the structural counts of one pass over the update
// stream; every complete round replays the same batches on the same base
// graph, so they must agree exactly.
type roundCounts struct {
	builds int   // snapshot builds (each one a compaction)
	units  int64 // work units summed over the round's reads
}

// opSample is what one op measured.
type opSample struct {
	lat, first time.Duration // first < 0: the op yielded no violation
	read       time.Duration // the drain's share of lat (all of it but update-mix's Apply)
	alloc      uint64
	violations int
	res        gfd.Result
	failed     string // non-empty: why the op failed
}

func newBench(w workloadSpec, dir string) (*bench, error) {
	b := &bench{w: w, dir: dir, alloc: newAllocCounter()}
	b.opt = gfd.Options{Engine: gfd.EngineAuto, N: nproc()}
	if w.kind == kindDist {
		b.opt.Engine = gfd.EngineDistributed
		b.opt.Dist = &gfd.DistOptions{ManifestPath: filepath.Join(dir, manifestFile)}
	}
	keys, err := readLines(filepath.Join(dir, referenceFile))
	if err != nil {
		return nil, err
	}
	if len(keys) == 0 {
		return nil, errors.New("empty reference: the workload would check nothing")
	}
	for _, k := range keys {
		v, err := parseKey(k)
		if err != nil {
			return nil, err
		}
		b.ref = append(b.ref, v)
	}
	slices.SortFunc(b.ref, cmpViolation)
	if w.kind == kindUpdate {
		if b.updates, err = readUpdates(filepath.Join(dir, updatesFile)); err != nil {
			return nil, err
		}
		if len(b.updates) == 0 {
			return nil, errors.New("empty update stream")
		}
	}
	b.got = make([]gfd.Violation, 0, 2*len(b.ref))
	return b, nil
}

// parseKey reads a Violation.Key ("rule,node,node,...") back.
func parseKey(k string) (gfd.Violation, error) {
	parts := strings.Split(k, ",")
	v := gfd.Violation{Rule: parts[0], Match: make(core.Match, len(parts)-1)}
	for i, p := range parts[1:] {
		id, err := strconv.Atoi(p)
		if err != nil {
			return v, fmt.Errorf("reference key %q: %w", k, err)
		}
		v.Match[i] = graph.NodeID(id)
	}
	return v, nil
}

func cmpViolation(a, b gfd.Violation) int {
	return cmp.Or(strings.Compare(a.Rule, b.Rule), slices.Compare(a.Match, b.Match))
}

// sameViolations sorts got in place and reports whether it equals want
// (already sorted) element for element, duplicates included.
func sameViolations(got, want []gfd.Violation) string {
	slices.SortFunc(got, cmpViolation)
	if len(got) != len(want) {
		return fmt.Sprintf("%d violations, want %d", len(got), len(want))
	}
	for i := range got {
		if cmpViolation(got[i], want[i]) != 0 {
			return fmt.Sprintf("violation %s differs from the expected %s", got[i].Key(), want[i].Key())
		}
	}
	return ""
}

// drop releases the live state before the next set-up, so set-ups never
// overlap in memory.
func (b *bench) drop() {
	if b.loaded != nil {
		b.loaded.Close()
	}
	b.sess, b.prep, b.loaded, b.det, b.g = nil, nil, nil, nil, nil
	runtime.GC()
	debug.FreeOSMemory()
}

// setup goes from the files on disk to the first complete result: load,
// session, prepare (freeze + rule lowering), the incremental detector's
// build on update-mix, and the first full drain. It returns the set-up
// time and the first drain's time; the first result is checked like an op
// but outside the timed span.
func (b *bench) setup(ctx context.Context) (total, first time.Duration, err error) {
	b.drop()
	root := b.tr.begin("setup", -1)
	start := time.Now()
	s := b.tr.begin("graph.load", -1)
	if b.w.kind == kindDist {
		b.sess, b.loaded, err = gfd.OpenSnapshot(ctx, filepath.Join(b.dir, snapshotFile))
	} else {
		var g *graph.Graph
		if g, err = readGraph(filepath.Join(b.dir, graphFile)); err == nil {
			b.sess, err = gfd.NewSession(g)
		}
	}
	b.tr.end(s)
	if err != nil {
		b.tr.end(root)
		return 0, 0, err
	}
	b.g = b.sess.Graph()
	s = b.tr.begin("core.parse", -1)
	set, err := readRules(filepath.Join(b.dir, rulesFile))
	b.tr.end(s)
	if err != nil {
		b.tr.end(root)
		return 0, 0, err
	}
	s = b.tr.begin("session.prepare", -1)
	f := b.tr.begin("graph.freeze", -1)
	b.sess.Snapshot()
	b.tr.end(f)
	b.prep, err = b.sess.Prepare(set)
	b.tr.end(s)
	if err != nil {
		b.tr.end(root)
		return 0, 0, err
	}
	if b.w.kind == kindUpdate {
		s = b.tr.begin("incremental.build", -1)
		b.det = b.sess.Incremental(set)
		b.tr.end(s)
	}
	d := b.tr.begin("validate.drain", -1)
	firstStart := time.Now()
	var res gfd.Result
	derr := b.drain(ctx, b.opt, &res, firstStart, nil)
	first = time.Since(firstStart)
	b.tr.end(d)
	total = time.Since(start)
	b.tr.end(root)
	why := b.verify(derr, &res) + b.coldCheck()
	if why == "" && b.det != nil {
		// The detector's report matched the drain; both must also match
		// the reference, which was computed on the same base graph.
		why = sameViolations(b.got, b.ref)
	}
	if why != "" {
		return 0, 0, fmt.Errorf("first result after set-up is wrong: %s", why)
	}
	b.next = 0
	b.roundBuilds = b.g.SnapshotBuilds()
	b.cur = roundCounts{}
	return total, first, nil
}

// drain ranges over Prepared.Violations to completion into b.got,
// recording the time of the first violation relative to start.
func (b *bench) drain(ctx context.Context, opt gfd.Options, res *gfd.Result, start time.Time, first *time.Duration) error {
	b.got = b.got[:0]
	for v, err := range b.prep.ViolationsResult(ctx, opt, res) {
		if err != nil {
			return err
		}
		if first != nil && *first < 0 {
			*first = time.Since(start)
		}
		b.got = append(b.got, v)
	}
	return nil
}

// verify checks the last drain: no error (ErrPartial included), a complete
// census, and exactly the expected violation set — the reference on the
// detect and dist workloads, the incremental detector's maintained report
// on update-mix.
func (b *bench) verify(err error, res *gfd.Result) string {
	if err != nil {
		return "error: " + err.Error()
	}
	if !res.Completeness.Complete() {
		return fmt.Sprintf("incomplete run: %+v", res.Completeness)
	}
	want := b.ref
	if b.det != nil {
		b.inc = b.inc[:0]
		for _, v := range b.det.Report() {
			b.inc = append(b.inc, gfd.Violation{Rule: v.Rule, Match: v.Match})
		}
		slices.SortFunc(b.inc, cmpViolation)
		want = b.inc
	}
	return sameViolations(b.got, want)
}

// coldCheck enforces that the dist coordinator never builds a snapshot:
// it runs off the mapped file.
func (b *bench) coldCheck() string {
	if b.w.kind == kindDist {
		if n := b.g.SnapshotBuilds(); n != 0 {
			return fmt.Sprintf("dist coordinator built %d snapshots", n)
		}
	}
	return ""
}

// op runs one op and checks it. On the detect and dist workloads an op is
// one full drain of Prepared.Violations on the long-lived Prepared; on
// update-mix it is one update batch through the incremental detector
// followed by one drain over the live overlay.
func (b *bench) op(ctx context.Context, id int) opSample {
	var s opSample
	s.first = -1
	a0 := b.alloc.bytes()
	root := b.tr.begin("op", id)
	start := time.Now()
	var apply time.Duration
	if b.det != nil {
		a := b.tr.begin("incremental.apply", id)
		b.det.Apply(b.updates[b.next]...)
		b.tr.end(a)
		apply = time.Since(start)
	}
	d := b.tr.begin("validate.drain", id)
	err := b.drain(ctx, b.opt, &s.res, start, &s.first)
	b.tr.end(d)
	s.lat = time.Since(start)
	s.read = s.lat - apply
	s.alloc = b.alloc.bytes() - a0
	c := b.tr.begin("bench.check", id)
	s.violations = len(b.got)
	s.failed = b.verify(err, &s.res) + b.coldCheck()
	b.tr.end(c)
	b.tr.end(root)
	if b.det != nil {
		b.cur.units += int64(s.res.Units)
		b.next++
	}
	return s
}

// roundDone reports whether update-mix has replayed its whole stream; the
// caller then records the round and starts the next one from the files.
func (b *bench) roundDone() bool { return b.det != nil && b.next == len(b.updates) }

func (b *bench) endRound() {
	b.cur.builds = b.g.SnapshotBuilds() - b.roundBuilds
	b.rounds = append(b.rounds, b.cur)
}
