package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gfd"
	"gfd/internal/core"
	"gfd/internal/graph"
	"gfd/internal/incremental"
	"gfd/internal/match"
	"gfd/internal/pattern"
	"gfd/internal/reason"
	"gfd/internal/validate"
)

// probeReps is how many times each layer probe repeats; it reports the
// median.
const probeReps = 3

// probes measures the per-layer metrics of a traced run. Every probe is a
// span around the benchmark's own call into one module's public function,
// and every per-layer time is the median self time of those spans (span
// minus its child spans). Layers the op path exercises are read off the
// op and set-up spans; the others are measured by calling the module
// directly on this workload's data, so every workload reports every
// layer.
type probes struct {
	b                *bench
	r                *result
	untraced, traced []opSample
	firsts           []float64 // first-drain ms of each set-up
	matches          int64
}

func (p *probes) run(ctx context.Context) error {
	b, r := p.b, p.r
	latU, firstU, _ := opSeries(p.untraced)
	latT, _, _ := opSeries(p.traced)
	warm := median(latU)
	all := append(append([]opSample(nil), p.untraced...), p.traced...)

	// Op path: scheduler counts and the modeled (paper) time.
	var units, balance, modeled, reads, violations []float64
	for _, s := range all {
		units = append(units, float64(s.res.Units))
		if s.res.TotalWeight > 0 {
			balance = append(balance, float64(s.res.Makespan)*float64(nproc())/float64(s.res.TotalWeight))
		}
		modeled = append(modeled, ms(s.res.ModeledTime()))
		reads = append(reads, ms(s.read))
		violations = append(violations, float64(s.violations))
	}
	r.add("workload.units", "count", median(units), len(units))
	r.add("workload.balance", "ratio", median(balance), len(balance))
	r.add("validate.violations_per_unit", "ratio", median(violations)/max(median(units), 1), len(units))
	r.add("cluster.modeled_ms", "ms", median(modeled), len(modeled))
	r.add("first_violation_p50_ms", "ms", median(firstU), len(firstU))
	plan := median(p.firsts) - warm
	if b.w.kind == kindUpdate {
		plan = median(p.firsts) - median(reads)
	}
	r.add("validate.plan_ms", "ms", plan, len(p.firsts))

	// Set-up spans.
	for _, l := range []struct{ metric, span string }{
		{"graph.load_ms", "graph.load"},
		{"core.parse_ms", "core.parse"},
		{"session.prepare_ms", "session.prepare"},
		{"graph.freeze_ms", "graph.freeze"},
		{"setup.self_ms", "setup"},
	} {
		xs := b.tr.selfMS(l.span)
		r.add(l.metric, "ms", median(xs), len(xs))
	}
	opSelf := b.tr.selfMS("op")
	r.add("op.self_ms", "ms", median(opSelf), len(opSelf))
	r.add("trace.overhead_ms", "ms", median(latT)-warm, len(latT))

	if b.w.kind == kindUpdate {
		// Probe the base graph the count pass saw, not wherever the update
		// stream stopped mid-round.
		if err := b.restart(ctx); err != nil {
			return err
		}
	}
	if err := p.matchAndLiterals(); err != nil {
		return err
	}
	seq, err := p.timeDrains(ctx, "validate.seq", gfd.Options{Engine: gfd.EngineSequential}, false)
	if err != nil {
		return err
	}
	r.add("validate.seq_ms", "ms", seq, probeReps)
	r.add("validate.parallel_ratio", "ratio", warm/seq, len(latU))
	drain, err := p.timeDrains(ctx, "probe.drain", b.opt, false)
	if err != nil {
		return err
	}
	detect, err := p.timeDrains(ctx, "probe.detect", b.opt, true)
	if err != nil {
		return err
	}
	r.add("validate.drain_over_detect", "ratio", drain/detect, probeReps)
	if err := p.ruleSide(); err != nil {
		return err
	}
	if err := p.distAndStore(ctx, warm); err != nil {
		return err
	}
	return p.incremental(ctx)
}

// timed runs fn probeReps times, each inside a span, and returns the
// median self time in ms.
func (p *probes) timed(name string, fn func() error) (float64, error) {
	for i := 0; i < probeReps; i++ {
		s := p.b.tr.begin(name, -1)
		err := fn()
		p.b.tr.end(s)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return median(p.b.tr.selfMS(name)), nil
}

// timeDrains times full drains (or collect-mode Detect calls) of the live
// Prepared with opt, and checks each like an op, outside its span.
func (p *probes) timeDrains(ctx context.Context, name string, opt gfd.Options, collect bool) (float64, error) {
	b := p.b
	for i := 0; i < probeReps; i++ {
		var res gfd.Result
		var err error
		s := b.tr.begin(name, -1)
		if collect {
			var out *gfd.Result
			if out, err = b.prep.Detect(ctx, opt); out != nil {
				res = *out
				b.got = append(b.got[:0], out.Violations...)
			}
		} else {
			err = b.drain(ctx, opt, &res, time.Now(), nil)
		}
		b.tr.end(s)
		if why := b.verify(err, &res); why != "" {
			return 0, fmt.Errorf("%s: wrong result: %s", name, why)
		}
	}
	return median(b.tr.selfMS(name)), nil
}

// matchAndLiterals runs one match.Matcher pass per rule over the prepared
// topology (match.enumerate), keeping the matches, then evaluates every
// rule's compiled LiteralProgram on them (core.literal).
func (p *probes) matchAndLiterals() error {
	b, r := p.b, p.r
	bundle := b.prep.Bundle()
	topo := bundle.Topo()
	rules := bundle.Set().Rules()
	m := match.NewMatcher(topo)
	kept := make([][]graph.NodeID, len(rules))
	var matches int64
	enum, err := p.timed("match.enumerate", func() error {
		matches = 0
		for i, f := range rules {
			flat := kept[i][:0]
			m.Enumerate(f.Q, match.Options{}, func(h core.Match) bool {
				flat = append(flat, h...)
				return true
			})
			kept[i] = flat
			matches += int64(len(flat) / f.Q.NumNodes())
		}
		return nil
	})
	if err != nil {
		return err
	}
	if matches != p.matches {
		return fmt.Errorf("match.enumerate found %d matches, the count pass %d", matches, p.matches)
	}
	var violations int64
	lit, err := p.timed("core.literal", func() error {
		violations = 0
		for i, f := range rules {
			prog := bundle.Program(f)
			k := f.Q.NumNodes()
			for j := 0; j+k <= len(kept[i]); j += k {
				if prog.IsViolation(topo, kept[i][j:j+k]) {
					violations++
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.add("match.enumerate_ms", "ms", enum, probeReps)
	r.add("match.matches", "count", float64(matches), 1)
	r.add("match.matches_per_ms", "1/ms", float64(matches)/enum, probeReps)
	r.add("core.literal_ms", "ms", lit, probeReps)
	r.add("core.violations_per_match", "ratio", float64(violations)/float64(max(matches, 1)), 1)
	return nil
}

// ruleSide measures the rule-side layers on freshly parsed copies of Σ, so
// no per-rule cache of the live session is hit: bundle lowering
// (validate.bundle), implication-based reduction (reason.reduce), pattern
// compilation (pattern.compile), and the shared-core factor grouping the
// sequential engine uses (pattern.factor_groups).
func (p *probes) ruleSide() error {
	b, r := p.b, p.r
	path := filepath.Join(b.dir, rulesFile)
	topo := b.prep.Bundle().Topo()
	fresh := func() (*core.Set, error) { return readRules(path) }
	bundleMS, err := p.timedFresh("validate.bundle", fresh, func(set *core.Set) {
		validate.NewBundleOver(b.g, topo, set, nil)
	})
	if err != nil {
		return err
	}
	var kept int
	reduceMS, err := p.timedFresh("reason.reduce", fresh, func(set *core.Set) {
		kept = reason.Reduce(set).Len()
	})
	if err != nil {
		return err
	}
	compileMS, err := p.timedFresh("pattern.compile", fresh, func(set *core.Set) {
		for _, f := range set.Rules() {
			pattern.Compile(f.Q, topo.Syms())
		}
	})
	if err != nil {
		return err
	}
	set, err := fresh()
	if err != nil {
		return err
	}
	r.add("validate.bundle_ms", "ms", bundleMS, probeReps)
	r.add("reason.reduce_ms", "ms", reduceMS, probeReps)
	r.add("reason.rules_kept", "count", float64(kept), 1)
	r.add("pattern.compile_ms", "ms", compileMS, probeReps)
	r.add("pattern.factor_groups", "count", float64(factorGroups(set.Rules())), 1)
	return nil
}

// timedFresh is timed with a fresh rule set parsed before each repetition,
// outside the span.
func (p *probes) timedFresh(name string, fresh func() (*core.Set, error), fn func(*core.Set)) (float64, error) {
	for i := 0; i < probeReps; i++ {
		set, err := fresh()
		if err != nil {
			return 0, err
		}
		s := p.b.tr.begin(name, -1)
		fn(set)
		p.b.tr.end(s)
	}
	return median(p.b.tr.selfMS(name)), nil
}

// factorGroups counts the shared-core groups of at least two rules that
// greedy grouping by pattern.CommonCore finds among the cyclic rules —
// the grouping the sequential engine factorizes enumeration over.
func factorGroups(rules []*core.GFD) int {
	type group struct {
		core *pattern.Pattern
		n    int
	}
	var groups []*group
	for _, f := range rules {
		if f.Q.NumNodes() < 2 || !pattern.HasCycle(f.Q) {
			continue
		}
		placed := false
		for _, g := range groups {
			if c, _, _, ok := pattern.CommonCore(g.core, f.Q, 2); ok && c.NumEdges() >= c.NumNodes() {
				g.core, g.n, placed = c, g.n+1, true
				break
			}
		}
		if !placed {
			groups = append(groups, &group{core: f.Q, n: 1})
		}
	}
	n := 0
	for _, g := range groups {
		if g.n >= 2 {
			n++
		}
	}
	return n
}

// distAndStore measures persistence and the multi-process engine on this
// workload's graph: SaveSnapshot (store.save), WriteShards
// (fragment.write_shards), OpenSnapshot (store.open), a distributed drain
// of a rule that matches nothing on the smallest label class — spawn,
// READY, a few empty units, SHUTDOWN (dist.fixed) — and, on dist-shards,
// the frames, bytes and wall of its distributed drains against the
// in-process fragmented engine.
func (p *probes) distAndStore(ctx context.Context, warm float64) (err error) {
	b, r := p.b, p.r
	dir := filepath.Join(b.dir, "probe")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// Persist a fresh copy of the input graph rather than the live one: a
	// snapshot whose symbol table an overlay has since extended persists
	// inconsistently (see README.md, "Known defect"), and update-mix's live
	// graph is such a snapshot's source.
	var g *graph.Graph
	if b.w.kind == kindDist {
		sess, l, err := gfd.OpenSnapshot(ctx, filepath.Join(b.dir, snapshotFile))
		if err != nil {
			return err
		}
		defer l.Close()
		g = sess.Graph()
	} else if g, err = readGraph(filepath.Join(b.dir, graphFile)); err != nil {
		return err
	}
	snap := filepath.Join(dir, "g.gfds")
	save, err := p.timed("store.save", func() error { return gfd.SaveSnapshot(ctx, g, snap) })
	if err != nil {
		return err
	}
	var manifest string
	shards, err := p.timed("fragment.write_shards", func() (err error) {
		manifest, err = gfd.WriteShards(g, nproc(), "hash", dir, "g")
		return err
	})
	if err != nil {
		return err
	}
	open, err := p.timed("store.open", func() error {
		_, l, err := gfd.OpenSnapshot(ctx, snap)
		if err == nil {
			err = l.Close()
		}
		return err
	})
	if err != nil {
		return err
	}
	r.add("store.save_ms", "ms", save, probeReps)
	r.add("fragment.write_shards_ms", "ms", shards, probeReps)
	r.add("store.open_ms", "ms", open, probeReps)

	sess, l, err := gfd.OpenSnapshot(ctx, snap)
	if err != nil {
		return err
	}
	defer l.Close()
	distOpt := gfd.Options{Engine: gfd.EngineDistributed, N: nproc(), Dist: &gfd.DistOptions{ManifestPath: manifest}}
	none, err := sess.Prepare(core.MustNewSet(noMatchRule(smallestClass(g))))
	if err != nil {
		return err
	}
	fixed, err := p.timed("dist.fixed", func() error {
		res, err := none.Detect(ctx, distOpt)
		if err == nil && len(res.Violations) != 0 {
			err = fmt.Errorf("a rule no node satisfies found %d violations", len(res.Violations))
		}
		return err
	})
	if err != nil {
		return err
	}
	r.add("dist.fixed_ms", "ms", fixed, probeReps)

	// The full distributed drain is the dist-shards op; its frames, bytes
	// and wall against the in-process fragmented engine on the same
	// Prepared. The other workloads never ship a frame and report 0: a
	// full distributed drain of them costs seconds to tens of seconds.
	var frames, shipped int64
	over := 0.0
	if b.w.kind == kindDist {
		frames, shipped = p.untraced[0].res.Messages, p.untraced[0].res.BytesShipped
		frag, err := p.timed("validate.fragmented", func() error {
			_, err := b.prep.Detect(ctx, gfd.Options{Engine: gfd.EngineFragmented, N: nproc()})
			return err
		})
		if err != nil {
			return err
		}
		over = warm / frag
	}
	r.add("dist.frames", "count", float64(frames), 1)
	r.add("dist.shipped_kb", "KB", float64(shipped)/1024, 1)
	r.add("dist.over_inproc", "ratio", over, probeReps)
	return nil
}

// noMatchRule is a one-node rule over label whose antecedent no node
// satisfies: one work unit per node of the class, none of which finds
// anything. (A rule with no unit at all would not measure the handshake:
// with nothing to assign, the coordinator reaps its workers without
// waiting for READY.)
func noMatchRule(label string) *core.GFD {
	q := pattern.New()
	q.AddNode("x", label)
	return core.MustNew("absent", q,
		[]core.Literal{core.Const("x", "val", "e2ebench_absent_value")},
		[]core.Literal{core.Const("x", "val", "e2ebench_other_value")})
}

// smallestClass is the label with the fewest nodes (ties by name).
func smallestClass(g *graph.Graph) string {
	best, n := "", 0
	for _, l := range g.Labels() {
		if c := g.LabelCount(l); best == "" || c < n || (c == n && l < best) {
			best, n = l, c
		}
	}
	return best
}

// incremental measures the update path: on update-mix from the ops' own
// spans; elsewhere by opening an incremental detector on the live session
// (incremental.build) and running a few small attribute batches through
// it, each followed by a drain over the live overlay, checked against the
// detector's report.
func (p *probes) incremental(ctx context.Context) error {
	b, r := p.b, p.r
	if b.w.kind == kindUpdate {
		apply, read := b.tr.opSelfMS("incremental.apply"), b.tr.opSelfMS("validate.drain")
		r.add("incremental.apply_ms", "ms", median(apply), len(apply))
		r.add("incremental.read_ms", "ms", median(read), len(read))
		r.add("graph.compactions", "count", float64(b.rounds[0].builds), 1)
		r.add("graph.snapshot_builds", "count", float64(b.rounds[0].builds), 1)
		return nil
	}
	builds := b.g.SnapshotBuilds()
	set := b.prep.Set()
	s := b.tr.begin("incremental.build", -1)
	b.det = b.sess.Incremental(set)
	b.tr.end(s)
	// The drain runs repVal: a distributed drain needs the frozen snapshot
	// the shards were written from, not an overlay.
	opt := gfd.Options{Engine: gfd.EngineAuto, N: nproc()}
	n := b.g.NumNodes()
	for i := 0; i < probeReps; i++ {
		ups := make([]incremental.Update, 0, 8)
		for j := 0; j < 8; j++ {
			v := graph.NodeID((i*8 + j) * n / (8 * probeReps))
			val, _ := b.g.Attr(graph.NodeID((int(v)+1)%n), "val")
			ups = append(ups, gfd.UpdateSetAttr{Node: v, Attr: "val", Value: val})
		}
		a := b.tr.begin("incremental.apply", -1)
		b.det.Apply(ups...)
		b.tr.end(a)
		d := b.tr.begin("incremental.read", -1)
		var res gfd.Result
		err := b.drain(ctx, opt, &res, time.Now(), nil)
		b.tr.end(d)
		if why := b.verify(err, &res); why != "" {
			return fmt.Errorf("incremental probe: %s", why)
		}
	}
	apply, read := b.tr.selfMS("incremental.apply"), b.tr.selfMS("incremental.read")
	r.add("incremental.apply_ms", "ms", median(apply), len(apply))
	r.add("incremental.read_ms", "ms", median(read), len(read))
	r.add("graph.compactions", "count", 0, 1)
	r.add("graph.snapshot_builds", "count", float64(builds), 1)
	return nil
}
