// Package session implements the prepared-session lifecycle that unifies
// every detection engine behind one compiled-artifact cache — the
// prepared-statement idiom applied to GFD validation.
//
// The paper's engines (detVio, repVal, disVal — Theorems 10/11) and the
// Exp-5 baselines all share one lifecycle: freeze the graph, lower the
// rules onto the frozen symbol table, enumerate, check. A Session owns
// the graph side of that lifecycle and a Prepared owns the rule side:
//
//	sess, _ := session.New(g)
//	prep, _ := sess.Prepare(set) // freeze + lower, once
//	res, _ := prep.Detect(ctx, validate.Options{Engine: validate.EngineReplicated, N: 16})
//	... // more Detect / Violations calls: no freeze, no re-lowering
//
// Freeze, implication-based workload reduction, multi-query grouping,
// pattern compilation and literal-program lowering are all paid once per
// (graph version, rule set), no matter how many Detect rounds, engines,
// and option variants run — the prerequisite for serving heavy validation
// traffic without an O(|V|+|E|) prefix per request. Mutating the graph
// directly invalidates the prepared state; the next Detect re-freezes and
// re-lowers automatically (and exactly once per new version).
//
// Small mutations need not re-freeze at all: updates routed through
// Session.Apply (or an incremental detector from Session.Incremental) are
// folded into a maintained graph.Overlay — the base snapshot plus
// localized CSR patches — and the next Detect runs against the patched
// view, paying only for the touched region. Once the accumulated delta
// exceeds a fraction of the base size, the session compacts: one fresh
// freeze absorbs the patches, amortizing O(|V|+|E|) over Ω(|G|) updates.
//
// Detect and Violations are safe for concurrent use while the graph is
// unmutated, like the engines themselves. Mutation concurrent with
// detection is not safe — the same contract as Graph.Freeze.
package session

import (
	"context"
	"errors"
	"iter"
	"sync"
	"time"

	"gfd/internal/baseline"
	"gfd/internal/core"
	"gfd/internal/dist"
	"gfd/internal/fragment"
	"gfd/internal/graph"
	"gfd/internal/incremental"
	"gfd/internal/validate"
)

// Session owns a graph and the caches keyed by its mutation version:
// fragmentations for the fragmented engine, and the delta overlay shared
// by incremental detectors and handed to prepared bundles after small
// mutations. Prepared rule sets hang off it via Prepare.
type Session struct {
	g *graph.Graph

	mu           sync.Mutex
	frags        map[int]*fragment.Fragmentation // keyed by fragment count
	fragsVersion uint64
	overlay      *graph.Overlay // live delta view; nil when no update flowed through the session
}

// ErrNilGraph is returned by New when opened on a nil graph — a typed
// error instead of the panic it used to be, so servers embedding the
// session API can reject a bad request without a recover.
var ErrNilGraph = errors.New("session: nil graph")

// New opens a session on g. The graph stays owned by the caller: build
// and mutate it directly, and let the session pay the compilation costs
// once per version. A nil graph returns ErrNilGraph.
func New(g *graph.Graph) (*Session, error) {
	if g == nil {
		return nil, ErrNilGraph
	}
	return &Session{g: g}, nil
}

// Graph returns the session's graph.
func (s *Session) Graph() *graph.Graph { return s.g }

// Snapshot returns the frozen view of the session's graph at its current
// version (building it at most once per version).
func (s *Session) Snapshot() *graph.Snapshot { return s.g.Freeze() }

// Prepare compiles set against the session's graph: the graph is frozen
// and every rule's pattern and X → Y literals are lowered onto the frozen
// symbol table. The workload reduction and multi-query grouping the
// parallel engines use are derived on their first Detect and cached per
// option variant (eagerly deriving them here would tax sequential-only
// callers with reasoning work that engine never reads — use WarmEngine to
// front-load a specific variant). The returned Prepared serves any number
// of Detect / Violations calls and re-prepares itself (once per new graph
// version) when the graph mutates.
func (s *Session) Prepare(set *core.Set) (*Prepared, error) {
	if set == nil {
		return nil, errors.New("session: nil rule set")
	}
	p := &Prepared{sess: s, set: set}
	p.refresh()
	return p, nil
}

// Fragmentation returns the n-way hash fragmentation of the session's
// graph, cached per (graph version, n) so repeated fragmented-engine
// rounds stop re-partitioning.
func (s *Session) Fragmentation(n int) *fragment.Fragmentation {
	if n < 1 {
		n = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if v := s.g.Version(); s.frags == nil || s.fragsVersion != v {
		s.frags = make(map[int]*fragment.Fragmentation, 2)
		s.fragsVersion = v
	}
	if f := s.frags[n]; f != nil {
		return f
	}
	f := fragment.Partition(s.g, n, fragment.Hash)
	s.frags[n] = f
	return f
}

// Incremental builds an incremental detector maintaining Vio(Σ, G) over
// the session's graph. The session shares one graph.Overlay across
// detectors and its own Apply as long as every mutation flows through one
// of them (each keeps the overlay in lockstep with the graph); a direct
// graph mutation since then forces a fresh view. Updates applied through
// the detector advance the shared overlay, so the session's prepared rule
// sets follow along on their next Detect without re-freezing — one shared
// mutation lifecycle across the batch and incremental paths.
func (s *Session) Incremental(set *core.Set) *incremental.Detector {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := incremental.NewOnOverlay(s.liveOverlayLocked(), set)
	// Follow the detector through compactions: adopting its fresh overlay
	// keeps prepared bundles on the no-freeze path; abandoning it would
	// silently re-freeze every post-compaction Detect.
	d.OnCompact(func(ov *graph.Overlay) {
		s.mu.Lock()
		s.overlay = ov
		s.mu.Unlock()
	})
	return d
}

// Apply performs updates on the session's graph through the maintained
// overlay and returns the IDs of inserted nodes in update order. Unlike a
// direct graph mutation — which invalidates every prepared bundle into a
// full re-freeze — updates applied here keep the compiled path warm: the
// next Detect runs against the patched overlay, paying only for the
// touched region. Once the accumulated delta exceeds the compaction
// fraction (graph.CompactFraction), Apply compacts eagerly: the patches
// are absorbed into a fresh snapshot before returning — one amortized
// freeze per Ω(|G|) updates, paid by the batch that crosses the
// threshold — and a clean overlay starts.
func (s *Session) Apply(ups ...incremental.Update) []graph.NodeID {
	s.mu.Lock()
	defer s.mu.Unlock()
	ov := s.liveOverlayLocked()
	ids := incremental.ApplyTo(ov, ups...)
	if ov.NeedsCompaction() {
		// Compact eagerly into a fresh overlay (one freeze, the same
		// amortized cost as deferring it to the next Detect) so the
		// session always holds a live view: detectors sharing the old
		// overlay recover and re-publish through OnCompact, instead of
		// the two sides desyncing each other once per batch.
		s.overlay = graph.NewOverlay(s.g)
	}
	return ids
}

// liveOverlayLocked returns the session's overlay, starting a fresh one
// over the current graph version when none is live or a mutation bypassed
// it. Callers hold s.mu.
func (s *Session) liveOverlayLocked() *graph.Overlay {
	if s.overlay == nil || !s.overlay.Synced() {
		s.overlay = graph.NewOverlay(s.g)
	}
	return s.overlay
}

// topology resolves the compiled view prepared bundles should run
// against: the live overlay while it is synced with the graph, else a
// frozen snapshot (cached per version).
func (s *Session) topology() graph.Topology {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.overlay != nil {
		if s.overlay.Synced() {
			return s.overlay
		}
		s.overlay = nil
	}
	return s.g.Freeze()
}

// Prepared is a rule set compiled against a session's graph: the
// prepared-statement half of the API. It is valid across graph mutations
// — staleness is detected by version and repaired by re-preparing
// exactly once per new version.
type Prepared struct {
	sess *Session
	set  *core.Set

	mu      sync.Mutex
	version uint64
	bundle  *validate.Bundle

	// Baseline artifacts, lazily derived and cached: the GCFD conversion
	// depends only on the rule set; the relational encoding is
	// version-bound and dropped on re-prepare.
	gcfds       []*baseline.GCFD
	gcfdDropped int
	rel         *baseline.Relational
}

// Set returns the prepared rule set.
func (p *Prepared) Set() *core.Set { return p.set }

// Session returns the owning session.
func (p *Prepared) Session() *Session { return p.sess }

// Bundle returns the compiled execution bundle for the graph's current
// version, re-preparing it if the graph has mutated since the last call.
func (p *Prepared) Bundle() *validate.Bundle { return p.refresh() }

func (p *Prepared) refresh() *validate.Bundle {
	p.mu.Lock()
	defer p.mu.Unlock()
	if v := p.sess.g.Version(); p.bundle == nil || p.version != v {
		// The session hands back the live overlay after small mutations
		// (Session.Apply / detector Apply), so re-preparing costs only the
		// rule-side rebinding — no freeze; a full snapshot is built only
		// when mutations bypassed the overlay or the delta was compacted.
		// The superseded bundle donates its graph-independent caches
		// (reduction, grouping variants).
		p.bundle = validate.NewBundleOver(p.sess.g, p.sess.topology(), p.set, p.bundle)
		p.version = v
		p.rel = nil // the relational encoding snapshots the old version
	}
	return p.bundle
}

// Detect runs the engine selected by opt.Engine (EngineAuto resolves to
// EngineReplicated) and returns its result with the violation set
// collected and canonically sorted. Cancellation is honored by every
// engine: on context expiry the partial result is returned along with the
// context's error. It is the collect-mode wrapper over the same fused
// pipeline Violations exposes — a nil sink makes every engine gather into
// per-worker shards and sort once at the end.
func (p *Prepared) Detect(ctx context.Context, opt validate.Options) (*validate.Result, error) {
	return p.run(ctx, opt, nil)
}

// Violations runs detection as a pull-based stream: the returned iterator
// yields each violation as the engine finds it, in delivery order
// (unsorted — sort order is a property of the collected report, not the
// stream). The pipeline is fused end to end: match enumeration → compiled
// literal check → emission, with per-worker bounded lanes
// (Options.StreamBuffer) applying backpressure to producers instead of
// serializing them behind a mutex.
//
// Breaking out of the range stops detection: the break cancels the run's
// context, which reaches every worker's candidate enumeration at its next
// strided checkpoint — mid-class, not at the next unit boundary — and the
// workers, forwarders, and the engine goroutine all unwind before the
// iterator returns; abandoning early never leaks goroutines or wedges a
// worker on a full lane. A non-nil error is yielded at most once, as the
// final element: the caller's context expiring, or a partial run
// (errors.Is validate.ErrPartial) whose failed units may have withheld
// violations. An early break discards any error the teardown itself
// produced, exactly as a callback returning false always has.
//
// Violations observed before a break are exactly a prefix-closed subset
// of the full run's set for the same options: retried units never
// double-report (the scheduler's skip counts hold across asynchronous
// emission), so ranging to completion yields Detect's violation set
// element-for-element, just unsorted.
func (p *Prepared) Violations(ctx context.Context, opt validate.Options) iter.Seq2[validate.Violation, error] {
	return p.ViolationsResult(ctx, opt, nil)
}

// ViolationsResult is Violations with the run's instrumentation kept:
// after the iterator finishes (ranged to completion or abandoned), out —
// when non-nil — holds the engine's Result (timings, census, modeled
// comm; Result.Violations stays empty, the stream carried them). On an
// early break Result.Completeness reports how far detection actually got.
func (p *Prepared) ViolationsResult(ctx context.Context, opt validate.Options, out *validate.Result) iter.Seq2[validate.Violation, error] {
	return func(yield func(validate.Violation, error) bool) {
		runCtx, cancel := context.WithCancel(ctx)
		defer cancel()
		nopt := opt.Normalized()
		lanes := nopt.N
		if nopt.Engine.Resolve() == validate.EngineFragmented {
			// The fragmented engine clamps its worker count to the
			// fragmentation's; size the lanes off the same number.
			lanes = p.fragmentation(nopt).N
		}
		pipe := validate.NewPipeSink(runCtx, lanes, nopt.StreamBuffer)
		type outcome struct {
			res *validate.Result
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			res, err := p.run(runCtx, opt, pipe)
			pipe.Close()
			done <- outcome{res, err}
		}()
		// Drain the merged stream to completion even after the consumer
		// breaks: the engine goroutine must finish (it owns the Result) and
		// yield must never be called again once it returned false.
		stopped := false
		for v := range pipe.Out() {
			if stopped {
				continue
			}
			if !yield(v, nil) {
				stopped = true
				cancel()
			}
		}
		o := <-done
		if out != nil && o.res != nil {
			*out = *o.res
		}
		if o.err != nil && !stopped {
			yield(validate.Violation{}, o.err)
		}
	}
}

func (p *Prepared) run(ctx context.Context, opt validate.Options, sink validate.Sink) (*validate.Result, error) {
	b := p.refresh()
	switch opt.Engine.Resolve() {
	case validate.EngineSequential:
		return single(p.set.Len(), 1, sink, func(s validate.Sink) error {
			return validate.DetVioB(ctx, b, s)
		})
	case validate.EngineReplicated:
		return validate.RepValB(ctx, b, opt, sink)
	case validate.EngineFragmented:
		return validate.DisValB(ctx, b, p.fragmentation(opt), opt, sink)
	case validate.EngineGCFD:
		rules, _ := p.GCFDRules()
		n := opt.Normalized().N
		return single(len(rules), n, sink, func(s validate.Sink) error {
			return baseline.DetectB(ctx, b, rules, n, s)
		})
	case validate.EngineBigDansing:
		rel := p.relational(b)
		n := opt.Normalized().N
		return single(p.set.Len(), n, sink, func(s validate.Sink) error {
			return baseline.DetectJoinsB(ctx, b, rel, n, s)
		})
	case validate.EngineDistributed:
		return dist.DetectB(ctx, b, opt, sink)
	}
	return nil, errors.New("session: unknown engine")
}

// fragmentation resolves the fragmented engine's partition: Options.Frag
// when set, else the session's cached hash partition into N fragments.
func (p *Prepared) fragmentation(opt validate.Options) *fragment.Fragmentation {
	if opt.Frag != nil {
		return opt.Frag
	}
	return p.sess.Fragmentation(opt.Normalized().N)
}

// single wraps the engines that do not build their own Result (sequential
// and the baselines) in the shape the parallel engines return: wall time,
// rule count, and — when no external sink was supplied — the collected,
// sorted violation set, gathered through a CollectSink with one lane per
// engine worker. With an external sink the engines emit straight into it
// over the very same code path; the three modes differ only in the sink.
func single(rules, lanes int, sink validate.Sink, run func(validate.Sink) error) (*validate.Result, error) {
	res := &validate.Result{Rules: rules}
	var collect *validate.CollectSink
	if sink == nil {
		collect = validate.NewCollectSink(lanes)
		sink = collect
	}
	start := time.Now()
	err := run(sink)
	res.Wall = time.Since(start)
	if collect != nil {
		res.Violations = collect.Report()
		res.Violations.Sort()
	}
	return res, err
}

// WarmEngine pre-derives every artifact a Detect with these options
// would otherwise build lazily on first use — the reduction/grouping
// variant for the parallel engines, the fragmentation for the fragmented
// engine, the GCFD rule conversion, the BigDansing relational encoding —
// so a timed Detect measures evaluation only.
func (p *Prepared) WarmEngine(opt validate.Options) {
	b := p.refresh()
	switch opt.Engine.Resolve() {
	case validate.EngineReplicated:
		b.Warm(opt)
	case validate.EngineFragmented:
		b.Warm(opt)
		p.fragmentation(opt)
	case validate.EngineGCFD:
		p.GCFDRules()
	case validate.EngineBigDansing:
		p.relational(b)
	}
}

// GCFDRules returns the path-expressible conversion of the prepared set
// (cached — it depends only on the rules) plus how many rules were
// dropped as inexpressible, the quantity Exp-5's recall comparison turns
// on.
func (p *Prepared) GCFDRules() ([]*baseline.GCFD, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.gcfds == nil && p.gcfdDropped == 0 {
		p.gcfds, p.gcfdDropped = baseline.ConvertSet(p.set)
	}
	return p.gcfds, p.gcfdDropped
}

// relational returns the BigDansing relational encoding of the graph,
// cached per graph version.
func (p *Prepared) relational(b *validate.Bundle) *baseline.Relational {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.rel == nil {
		p.rel = baseline.Encode(b.Graph())
	}
	return p.rel
}
