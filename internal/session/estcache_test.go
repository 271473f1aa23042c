package session_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"gfd/internal/core"
	"gfd/internal/graph"
	"gfd/internal/incremental"
	"gfd/internal/pattern"
	"gfd/internal/validate"
)

// pairWorkload builds K disjoint A -[e]-> B pairs plus the rule
// Q: x:A -e-> y:B, {} -> x.val = y.val. The pattern is one component of
// radius 1, so workload estimation measures exactly one 1-hop block per
// pivot candidate — which makes the estimation-cache probe assertions
// exact: an isolated Apply delta must re-measure exactly the blocks it
// touched.
func pairWorkload(k int) (*graph.Graph, *core.Set) {
	q := pattern.New()
	x := q.AddNode("x", "A")
	y := q.AddNode("y", "B")
	q.AddEdge(x, y, "e")
	phi := core.MustNew("same_val", q, nil, []core.Literal{core.VarEq("x", "val", "y", "val")})

	g := graph.New(2*k, k)
	for i := 0; i < k; i++ {
		v := fmt.Sprintf("v%d", i)
		bv := v
		if i%5 == 0 { // some violations so detection has work
			bv = v + "_off"
		}
		a := g.AddNode("A", graph.Attrs{"val": v})
		b := g.AddNode("B", graph.Attrs{"val": bv})
		g.MustAddEdge(a, b, "e")
	}
	return g, core.MustNewSet(phi)
}

// TestWarmDetectSkipsEstimation asserts the estimation-cache contract for
// warm rounds: after the first Detect of a variant, repeated repVal and
// disVal rounds perform zero estimation passes and zero block-size
// traversals (EstimationStats is the probe, mirroring the SnapshotBuilds
// pattern) — and disVal's first round shares the base estimation repVal
// already built.
func TestWarmDetectSkipsEstimation(t *testing.T) {
	ctx := context.Background()
	g, set := pairWorkload(12)
	prep, err := mustOpen(t, g).Prepare(set)
	if err != nil {
		t.Fatal(err)
	}
	rep := validate.Options{Engine: validate.EngineReplicated, N: 3}
	want, err := prep.Detect(ctx, rep)
	if err != nil {
		t.Fatal(err)
	}
	cold := prep.Bundle().EstimationStats()
	if cold.Builds == 0 || cold.Measured == 0 {
		t.Fatalf("cold round recorded no estimation work: %+v", cold)
	}

	for round := 1; round <= 3; round++ {
		got, err := prep.Detect(ctx, rep)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Violations.Equal(want.Violations) {
			t.Fatalf("warm round %d diverged", round)
		}
		st := prep.Bundle().EstimationStats()
		if st.Builds != cold.Builds || st.Measured != cold.Measured {
			t.Fatalf("warm round %d ran an estimation pass: %+v vs cold %+v", round, st, cold)
		}
		if st.Reused != cold.Reused+round {
			t.Fatalf("warm round %d: Reused = %d, want %d", round, st.Reused, cold.Reused+round)
		}
	}

	// disVal with the same variant shares the base estimation: its first
	// round attaches ship costs but measures no new blocks, and its warm
	// rounds skip the phase entirely.
	dis := validate.Options{Engine: validate.EngineFragmented, N: 3}
	preDis := prep.Bundle().EstimationStats()
	if _, err := prep.Detect(ctx, dis); err != nil {
		t.Fatal(err)
	}
	st := prep.Bundle().EstimationStats()
	if st.Builds != preDis.Builds || st.Measured != preDis.Measured {
		t.Fatalf("disVal re-ran the shared base estimation: %+v vs %+v", st, preDis)
	}
	preWarm := st
	if _, err := prep.Detect(ctx, dis); err != nil {
		t.Fatal(err)
	}
	st = prep.Bundle().EstimationStats()
	if st.Builds != preWarm.Builds || st.Measured != preWarm.Measured || st.Reused != preWarm.Reused+1 {
		t.Fatalf("warm disVal round was not estimation-free: %+v vs %+v", st, preWarm)
	}
}

// TestApplyInvalidatesOnlyTouchedBlocks asserts the delta-proportional
// invalidation contract: a Session.Apply batch forces one new estimation
// pass, but only the blocks within radius of the touched nodes are
// re-traversed — the rest of the workload is served from the inherited
// size cache, and no snapshot is rebuilt (the overlay path).
func TestApplyInvalidatesOnlyTouchedBlocks(t *testing.T) {
	ctx := context.Background()
	g, set := pairWorkload(12)
	sess := mustOpen(t, g)
	prep, err := sess.Prepare(set)
	if err != nil {
		t.Fatal(err)
	}
	rep := validate.Options{Engine: validate.EngineReplicated, N: 3}
	if _, err := prep.Detect(ctx, rep); err != nil {
		t.Fatal(err)
	}
	builds0 := g.SnapshotBuilds()
	st0 := prep.Bundle().EstimationStats()

	// An isolated new pair: the only block within radius 1 of the touched
	// nodes that belongs to a pivot candidate is the new pair's own —
	// exactly one re-measured traversal.
	ids := sess.Apply(
		incremental.AddNode{Label: "A", Attrs: graph.Attrs{"val": "new"}},
		incremental.AddNode{Label: "B", Attrs: graph.Attrs{"val": "new"}},
	)
	sess.Apply(incremental.AddEdge{From: ids[0], To: ids[1], Label: "e"})
	if _, err := prep.Detect(ctx, rep); err != nil {
		t.Fatal(err)
	}
	st1 := prep.Bundle().EstimationStats()
	if st1.Builds != st0.Builds+1 {
		t.Fatalf("Apply round: Builds = %d, want %d (one fresh pass)", st1.Builds, st0.Builds+1)
	}
	if st1.Measured != st0.Measured+1 {
		t.Fatalf("Apply of an isolated pair re-measured %d blocks, want exactly 1",
			st1.Measured-st0.Measured)
	}

	// An edge between two existing pairs dirties exactly the two blocks
	// whose candidates now reach it (one pivot candidate per pair).
	sess.Apply(incremental.AddEdge{From: graph.NodeID(1), To: graph.NodeID(3), Label: "e"})
	if _, err := prep.Detect(ctx, rep); err != nil {
		t.Fatal(err)
	}
	st2 := prep.Bundle().EstimationStats()
	if st2.Measured != st1.Measured+2 {
		t.Fatalf("cross-pair edge re-measured %d blocks, want exactly 2", st2.Measured-st1.Measured)
	}

	// An attribute write touches no topology: the next pass re-assembles
	// units (values shifted) but re-traverses nothing.
	sess.Apply(incremental.SetAttr{Node: graph.NodeID(0), Attr: "val", Value: "rewritten"})
	if _, err := prep.Detect(ctx, rep); err != nil {
		t.Fatal(err)
	}
	st3 := prep.Bundle().EstimationStats()
	if st3.Builds != st2.Builds+1 || st3.Measured != st2.Measured {
		t.Fatalf("attribute-only Apply: stats %+v, want one pass and zero traversals over %+v", st3, st2)
	}

	// The whole update stream stayed on the overlay path — zero snapshot
	// rebuilds — and detection still agrees with a cold run on the mutated
	// graph.
	if builds := g.SnapshotBuilds(); builds != builds0 {
		t.Fatalf("Apply stream re-froze the graph: %d builds, want %d", builds, builds0)
	}
	warm, err := prep.Detect(ctx, rep)
	if err != nil {
		t.Fatal(err)
	}
	fresh := validate.RepVal(g, set, validate.Options{N: 3})
	if !warm.Violations.Equal(fresh.Violations) {
		t.Fatalf("overlay-backed warm Detect diverged from cold repVal after Apply")
	}
}

// TestApplyRoundsPatchThePlan asserts which rounds re-plan cold: the
// first prepare and the round after a direct graph mutation (the delta is
// unknown) build cold exactly once; every Apply round, including the one
// whose batch crosses the compaction threshold, patches its predecessor's
// candidate lists and sizes. Each round still agrees with a cold repVal.
func TestApplyRoundsPatchThePlan(t *testing.T) {
	ctx := context.Background()
	g, set := pairWorkload(40)
	sess := mustOpen(t, g)
	prep, err := sess.Prepare(set)
	if err != nil {
		t.Fatal(err)
	}
	rep := validate.Options{Engine: validate.EngineReplicated, N: 3}
	round := func(what string, wantPatched bool) {
		t.Helper()
		before := prep.Bundle().EstimationStats()
		got, err := prep.Detect(ctx, rep)
		if err != nil {
			t.Fatal(err)
		}
		st := prep.Bundle().EstimationStats()
		patched := st.Patched - before.Patched
		if st.Builds != before.Builds+1 || patched != map[bool]int{true: 1, false: 0}[wantPatched] {
			t.Fatalf("%s: stats %+v after %+v, want one build, patched=%v", what, st, before, wantPatched)
		}
		if want := validate.RepVal(g, set, validate.Options{N: 3}); !got.Violations.Equal(want.Violations) {
			t.Fatalf("%s: violations diverged from a cold repVal", what)
		}
	}
	round("first prepare", false)

	for i := 0; i < 3; i++ {
		ids := sess.Apply(
			incremental.AddNode{Label: "A", Attrs: graph.Attrs{"val": fmt.Sprint("a", i)}},
			incremental.AddNode{Label: "B", Attrs: graph.Attrs{"val": fmt.Sprint("a", i)}},
		)
		sess.Apply(
			incremental.AddEdge{From: ids[0], To: ids[1], Label: "e"},
			incremental.SetAttr{Node: graph.NodeID(2 * i), Attr: "val", Value: "v0"}, // a tie
		)
		round(fmt.Sprintf("Apply round %d", i), true)
	}

	g.AddNode("A", graph.Attrs{"val": "direct"})
	round("after a direct mutation", false)
	sess.Apply(incremental.SetAttr{Node: 1, Attr: "val", Value: "again"})
	round("first Apply after the direct mutation", true)

	builds := g.SnapshotBuilds()
	var batch []incremental.Update
	for i := 0; i < 40; i++ { // past graph.CompactFraction of the 87-node, 43-edge base
		batch = append(batch, incremental.SetAttr{Node: graph.NodeID(i), Attr: "val", Value: fmt.Sprint("c", i%3)})
	}
	sess.Apply(batch...)
	if g.SnapshotBuilds() != builds+1 {
		t.Fatalf("the batch did not compact: %d snapshot builds, want %d", g.SnapshotBuilds(), builds+1)
	}
	round("Apply round across a compaction", true)
}

// TestConcurrentVariantsPatchOneBundle runs several option variants
// concurrently on one Prepared after each Apply: their estimation passes
// share the bundle's patched candidate lists and publish into its size
// table at the same time (exercised under -race in CI). Every variant must
// still report the sequential engine's violations.
func TestConcurrentVariantsPatchOneBundle(t *testing.T) {
	ctx := context.Background()
	g, set := pairWorkload(30)
	sess := mustOpen(t, g)
	prep, err := sess.Prepare(set)
	if err != nil {
		t.Fatal(err)
	}
	variants := []validate.Options{
		{Engine: validate.EngineReplicated, N: 2},
		{Engine: validate.EngineReplicated, N: 3, HistogramM: 1},
		{Engine: validate.EngineReplicated, N: 2, NoOptimize: true},
		{Engine: validate.EngineFragmented, N: 2},
	}
	for round := 0; round < 6; round++ {
		ids := sess.Apply(
			incremental.AddNode{Label: "A", Attrs: graph.Attrs{"val": fmt.Sprint("r", round)}},
			incremental.AddNode{Label: "B", Attrs: graph.Attrs{"val": "v0"}},
		)
		sess.Apply(
			incremental.AddEdge{From: ids[0], To: ids[1], Label: "e"},
			incremental.SetAttr{Node: graph.NodeID(2 * round), Attr: "val", Value: "v1"},
		)
		want, err := prep.Detect(ctx, validate.Options{Engine: validate.EngineSequential})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for _, opt := range variants {
			wg.Add(1)
			go func(opt validate.Options) {
				defer wg.Done()
				got, err := prep.Detect(ctx, opt)
				if err != nil {
					t.Error(err)
					return
				}
				if !got.Violations.Equal(want.Violations) {
					t.Errorf("round %d %v: violations diverged from the sequential engine", round, opt.Engine)
				}
			}(opt)
		}
		wg.Wait()
	}
	if st := prep.Bundle().EstimationStats(); st.Patched == 0 {
		t.Fatalf("no estimation pass patched: %+v", st)
	}
}
