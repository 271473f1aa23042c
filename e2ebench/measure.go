package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"gfd/internal/match"
)

// measure runs the set-ups and the closed op loop of one run and returns
// its metrics: the end-to-end ones untraced, the per-layer ones traced.
//
// The traced run measures the op loop twice, half the time each: first
// untraced, then with spans, so the tracing overhead is the difference of
// the two op_p50 values. It then runs the layer probes (probes.go).
func measure(ctx context.Context, w workloadSpec, seed int64, dir, state string, seconds float64, traced bool, out io.Writer) (*result, error) {
	b, err := newBench(w, dir)
	if err != nil {
		return nil, err
	}
	b.log = out
	digests, err := readLines(filepath.Join(dir, digestFile))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "# e2ebench workload=%s seed=%d seconds=%g trace=%t nproc=%d\n", w.name, seed, seconds, traced, nproc())
	for _, d := range digests {
		fmt.Fprintln(out, "input ", d)
	}
	if traced {
		b.tr = newTracer()
	}

	var setups, firsts []float64
	for i := 0; i < setupReps; i++ {
		total, first, err := b.setup(ctx)
		if err != nil {
			return nil, err
		}
		setups = append(setups, total.Seconds())
		firsts = append(firsts, ms(first))
	}
	matches := countMatches(b)

	r := &result{correct: true}
	var untraced, tracedOps []opSample
	// Return the set-ups' garbage to the OS, so the op loop's peak
	// resident memory is the serving state's alone.
	runtime.GC()
	debug.FreeOSMemory()
	b.rss = startRSS()
	if traced {
		tr := b.tr
		b.tr = nil
		untraced = b.loop(ctx, seconds/2, r)
		b.tr = tr
		tracedOps = b.loop(ctx, seconds/2, r)
	} else {
		untraced = b.loop(ctx, seconds, r)
	}
	peakMB := b.rss.stopMB(distWorkers(w))
	var drift string
	r.counts, drift = structuralCounts(b, append(untraced, tracedOps...), matches)
	if drift != "" {
		fmt.Fprintf(out, "# structural count changed within the run: %s\n", drift)
		r.correct = false
	}
	if r.failed > 0 {
		r.correct = false
	}

	if !traced {
		lat, _, alloc := opSeries(untraced)
		r.add("setup_s", "s", median(setups), len(setups))
		r.add("op_p50_ms", "ms", median(lat), len(lat))
		r.add("op_p90_ms", "ms", quantile(lat, 0.9), len(lat))
		r.add("alloc_mb_per_op", "MB", median(alloc), len(alloc))
		r.add("peak_rss_mb", "MB", peakMB, 1)
		return r, nil
	}
	p := &probes{b: b, r: r, untraced: untraced, traced: tracedOps, firsts: firsts, matches: matches}
	if err := p.run(ctx); err != nil {
		return nil, err
	}
	if state == "" {
		state = dir
	}
	path := filepath.Join(state, "spans", fmt.Sprintf("%s-seed%d.tsv", w.name, seed))
	if err := b.tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "# %d spans written to %s\n", len(b.tr.spans), path)
	return r, nil
}

// loop runs ops back to back for the given time (and at least minOps of
// them), counting failures into r. On update-mix, each time the stream is
// exhausted the round's counts are recorded and the next round starts
// from the files again, untimed and untraced.
func (b *bench) loop(ctx context.Context, seconds float64, r *result) []opSample {
	var out []opSample
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(out) < b.w.minOps() || time.Now().Before(deadline) {
		s := b.op(ctx, len(out))
		r.attempted++
		if s.failed != "" {
			r.failed++
			if r.failed <= 3 {
				fmt.Fprintf(b.log, "# op %d failed: %s\n", len(out), s.failed)
			}
		}
		out = append(out, s)
		if b.roundDone() {
			b.endRound()
			if err := b.restart(ctx); err != nil {
				r.failed++
				fmt.Fprintf(b.log, "# restarting the update stream failed: %v\n", err)
				break
			}
		}
	}
	return out
}

// restart sets up again from the files for the next update-mix round,
// untraced and outside the resident-memory peak: like the set-ups before
// the loop, it is not serving work.
func (b *bench) restart(ctx context.Context) error {
	tr := b.tr
	b.tr = nil
	b.rss.paused.Store(true)
	_, _, err := b.setup(ctx)
	runtime.GC()
	debug.FreeOSMemory()
	b.rss.paused.Store(false)
	b.tr = tr
	return err
}

// opSeries extracts per-op latency, first-violation latency and MB
// allocated.
func opSeries(ops []opSample) (lat, first, alloc []float64) {
	for _, s := range ops {
		lat = append(lat, ms(s.lat))
		if s.first >= 0 {
			first = append(first, ms(s.first))
		}
		alloc = append(alloc, float64(s.alloc)/(1<<20))
	}
	return lat, first, alloc
}

func distWorkers(w workloadSpec) int {
	if w.kind == kindDist {
		return nproc()
	}
	return 0
}

// countMatches runs one match.Matcher pass per rule over the prepared
// topology and returns the total match count: a structural count every
// run prints, whatever the workload.
func countMatches(b *bench) int64 {
	bundle := b.prep.Bundle()
	m := match.NewMatcher(bundle.Topo())
	var n int64
	for _, f := range bundle.Set().Rules() {
		n += int64(m.Count(f.Q, match.Options{}))
	}
	return n
}

// structuralCounts are the counts that are functions of the inputs and the
// code alone. Within a run they must repeat exactly from op to op (detect,
// dist) or round to round (update-mix); the second result names the count
// that did not.
func structuralCounts(b *bench, ops []opSample, matches int64) ([]count, string) {
	counts := []count{{"match.matches", matches}}
	if b.w.kind == kindUpdate {
		if len(b.rounds) == 0 {
			return counts, "no complete round of the update stream"
		}
		for _, rc := range b.rounds[1:] {
			if rc != b.rounds[0] {
				return counts, fmt.Sprintf("round counts %+v, first round %+v", rc, b.rounds[0])
			}
		}
		return append(counts,
			count{"workload.units", b.rounds[0].units},
			count{"graph.snapshot_builds", int64(b.rounds[0].builds)},
			count{"graph.compactions", int64(b.rounds[0].builds)}), ""
	}
	first := ops[0].res
	counts = append(counts,
		count{"workload.units", int64(first.Units)},
		count{"graph.snapshot_builds", int64(b.g.SnapshotBuilds())})
	if b.w.kind == kindDist {
		counts = append(counts, count{"dist.frames", first.Messages})
	}
	for _, s := range ops[1:] {
		if s.res.Units != first.Units || s.res.Messages != first.Messages {
			return counts, fmt.Sprintf("units %d, frames %d; first op: units %d, frames %d",
				s.res.Units, s.res.Messages, first.Units, first.Messages)
		}
	}
	return counts, ""
}
