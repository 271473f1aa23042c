package session_test

import (
	"context"
	"testing"

	"gfd/internal/baseline"
	"gfd/internal/core"
	"gfd/internal/fragment"
	"gfd/internal/gen"
	"gfd/internal/graph"
	"gfd/internal/incremental"
	"gfd/internal/pattern"
	"gfd/internal/session"
	"gfd/internal/validate"
)

// mustOpen opens a session over g, failing the test on error — test
// graphs are constructed, never nil.
func mustOpen(t testing.TB, g *graph.Graph) *session.Session {
	t.Helper()
	sess, err := session.New(g)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// minedWorkload builds a noisy random graph plus mined rules, seeded;
// seeds that mine nothing fall through to nearby ones so every caller
// gets a non-empty set deterministically.
func minedWorkload(t *testing.T, seed int64) (*graph.Graph, *core.Set) {
	t.Helper()
	for off := int64(0); off < 5; off++ {
		s := seed + off*101
		g := gen.Synthetic(gen.SyntheticConfig{Nodes: 300, Edges: 700, Skew: 0.5, Seed: s})
		set := gen.MineGFDs(g, gen.MineConfig{NumRules: 5, PatternSize: 4, TwoCompFrac: 0.4, Seed: s + 1})
		if set.Len() == 0 {
			continue
		}
		gen.Inject(g, gen.NoiseConfig{Rate: 0.05, Seed: s + 2})
		return g, set
	}
	t.Fatalf("no rules mined near seed %d", seed)
	return nil, nil
}

// capitalWorkload is the paper's two-capitals example: deterministic
// violations for the small-scale lifecycle tests.
func capitalWorkload() (*graph.Graph, *core.Set, graph.NodeID) {
	q := pattern.New()
	x := q.AddNode("x", "country")
	y := q.AddNode("y", "city")
	z := q.AddNode("z", "city")
	q.AddEdge(x, y, "capital")
	q.AddEdge(x, z, "capital")
	phi := core.MustNew("one_capital", q, nil, []core.Literal{core.VarEq("y", "val", "z", "val")})

	g := graph.New(8, 8)
	au := g.AddNode("country", graph.Attrs{"val": "AU"})
	canberra := g.AddNode("city", graph.Attrs{"val": "Canberra"})
	melbourne := g.AddNode("city", graph.Attrs{"val": "Melbourne"})
	g.MustAddEdge(au, canberra, "capital")
	g.MustAddEdge(au, melbourne, "capital")
	return g, core.MustNewSet(phi), melbourne
}

// TestDetectMatchesFreeFunctions is the differential pin of the session
// API: reused Prepared.Detect results must equal fresh free-function
// calls across random graphs, all engines, and all Options variants —
// and repeating each Detect must return the same set (cached variant
// state does not drift).
func TestDetectMatchesFreeFunctions(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{1, 7, 23} {
		g, set := minedWorkload(t, seed)
		// Mining may have frozen the pre-noise graph; count builds from
		// the session's preparation on.
		base := g.SnapshotBuilds()
		prep, err := mustOpen(t, g).Prepare(set)
		if err != nil {
			t.Fatal(err)
		}

		wantSeq := validate.DetVio(g, set)
		res, err := prep.Detect(ctx, validate.Options{Engine: validate.EngineSequential})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Violations.Equal(wantSeq) {
			t.Errorf("seed %d: sequential Detect diverged from DetVio", seed)
		}

		variants := map[string]validate.Options{
			"default":   {N: 3},
			"random":    {N: 3, RandomAssign: true, Seed: seed},
			"nop":       {N: 3, NoOptimize: true},
			"noreduce":  {N: 3, NoReduce: true},
			"arbitrary": {N: 3, ArbitraryPivot: true},
			"split":     {N: 3, SplitThreshold: 8, NoReduce: true},
			"hist1":     {N: 2, HistogramM: 1},
		}
		for name, opt := range variants {
			repOpt := opt
			repOpt.Engine = validate.EngineReplicated
			want := validate.RepVal(g, set, opt)
			for round := 0; round < 2; round++ {
				got, err := prep.Detect(ctx, repOpt)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Violations.Equal(want.Violations) {
					t.Errorf("seed %d: repVal[%s] round %d diverged (%d vs %d violations)",
						seed, name, round, len(got.Violations), len(want.Violations))
				}
			}

			disOpt := opt
			disOpt.Engine = validate.EngineFragmented
			frag := fragment.Partition(g, max(opt.N, 1), fragment.Hash)
			disOpt.Frag = frag
			wantDis := validate.DisVal(g, frag, set, opt)
			got, err := prep.Detect(ctx, disOpt)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Violations.Equal(wantDis.Violations) {
				t.Errorf("seed %d: disVal[%s] diverged", seed, name)
			}
			// And with the session-cached fragmentation (no explicit Frag):
			// hash partitioning is deterministic, so results agree too.
			disOpt.Frag = nil
			got, err = prep.Detect(ctx, disOpt)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Violations.Equal(wantDis.Violations) {
				t.Errorf("seed %d: disVal[%s] with cached fragmentation diverged", seed, name)
			}
		}

		// The whole battery — session rounds plus every fresh free-function
		// call — shares the graph's single frozen snapshot.
		if builds := g.SnapshotBuilds() - base; builds != 1 {
			t.Errorf("seed %d: %d snapshot builds across battery, want 1", seed, builds)
		}
	}
}

// TestBaselineEnginesMatchBaselinePackage pins EngineGCFD and
// EngineBigDansing dispatch to the baseline package's own entry points.
func TestBaselineEnginesMatchBaselinePackage(t *testing.T) {
	ctx := context.Background()
	g, set := minedWorkload(t, 11)
	prep, err := mustOpen(t, g).Prepare(set)
	if err != nil {
		t.Fatal(err)
	}

	rules, dropped := baseline.ConvertSet(set)
	wantG := baseline.Detect(g, rules)
	gotG, err := prep.Detect(ctx, validate.Options{Engine: validate.EngineGCFD})
	if err != nil {
		t.Fatal(err)
	}
	if !gotG.Violations.Equal(wantG) {
		t.Error("EngineGCFD diverged from baseline.Detect")
	}
	if gotG.Rules != set.Len()-dropped {
		t.Errorf("EngineGCFD rules = %d, want %d expressible", gotG.Rules, set.Len()-dropped)
	}

	wantB := baseline.DetectJoins(g, baseline.Encode(g), set, 4)
	gotB, err := prep.Detect(ctx, validate.Options{Engine: validate.EngineBigDansing, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !gotB.Violations.Equal(wantB) {
		t.Error("EngineBigDansing diverged from baseline.DetectJoins")
	}
}

// TestMutationBetweenDetectsRefreezes: a Detect after graph mutation must
// re-prepare (exactly one fresh freeze) and agree with a fresh validation
// of the mutated graph.
func TestMutationBetweenDetectsRefreezes(t *testing.T) {
	ctx := context.Background()
	g, set, melbourne := capitalWorkload()
	prep, err := mustOpen(t, g).Prepare(set)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prep.Detect(ctx, validate.Options{Engine: validate.EngineSequential})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 2 {
		t.Fatalf("pre-mutation violations = %d, want 2", len(res.Violations))
	}
	if builds := g.SnapshotBuilds(); builds != 1 {
		t.Fatalf("builds = %d, want 1", builds)
	}

	// Repair the inconsistency; the prepared state is now stale.
	g.SetAttr(melbourne, "val", "Canberra")
	for round := 0; round < 3; round++ {
		res, err = prep.Detect(ctx, validate.Options{Engine: validate.EngineSequential})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) != 0 {
			t.Fatalf("post-repair round %d: violations = %d, want 0", round, len(res.Violations))
		}
	}
	if !validate.Satisfies(g, set) {
		t.Error("oracle disagrees: graph should satisfy the set")
	}
	// One re-freeze for the new version, not one per round.
	if builds := g.SnapshotBuilds(); builds != 2 {
		t.Errorf("builds = %d after mutation + 3 rounds, want 2", builds)
	}

	// Mutation that introduces new labels/values re-lowers correctly.
	us := g.AddNode("country", graph.Attrs{"val": "US"})
	dc := g.AddNode("city", graph.Attrs{"val": "DC"})
	nyc := g.AddNode("city", graph.Attrs{"val": "NYC"})
	g.MustAddEdge(us, dc, "capital")
	g.MustAddEdge(us, nyc, "capital")
	res, err = prep.Detect(ctx, validate.Options{Engine: validate.EngineReplicated, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 2 {
		t.Errorf("post-insert violations = %d, want 2", len(res.Violations))
	}
	if !res.Violations.Equal(validate.DetVio(g, set)) {
		t.Error("post-insert session result diverged from fresh DetVio")
	}
}

// TestPrepareNilSet: the one Prepare error path.
func TestPrepareNilSet(t *testing.T) {
	g, _, _ := capitalWorkload()
	if _, err := mustOpen(t, g).Prepare(nil); err == nil {
		t.Error("Prepare(nil) must error")
	}
}

// TestEmptySet: an empty rule set prepares and detects cleanly.
func TestEmptySet(t *testing.T) {
	g, _, _ := capitalWorkload()
	prep, err := mustOpen(t, g).Prepare(core.MustNewSet())
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []validate.Engine{validate.EngineSequential, validate.EngineReplicated, validate.EngineFragmented} {
		res, err := prep.Detect(context.Background(), validate.Options{Engine: engine, N: 2})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) != 0 {
			t.Errorf("%v: violations on empty set", engine)
		}
	}
}

// TestIncrementalIntegration: detectors built through the session share
// one attribute index while mutations flow through Apply, updates
// invalidate the session's prepared sets, and both paths agree.
func TestIncrementalIntegration(t *testing.T) {
	ctx := context.Background()
	g, set, melbourne := capitalWorkload()
	sess := mustOpen(t, g)
	prep, err := sess.Prepare(set)
	if err != nil {
		t.Fatal(err)
	}
	if res, _ := prep.Detect(ctx, validate.Options{}); len(res.Violations) != 2 {
		t.Fatalf("baseline violations = %d, want 2", len(res.Violations))
	}

	det := sess.Incremental(set)
	if det.Len() != 2 {
		t.Fatalf("incremental initial violations = %d, want 2", det.Len())
	}
	// Repair through the detector: the graph version bumps, so the
	// session's prepared set re-freezes on its next Detect.
	det.Apply(incremental.SetAttr{Node: melbourne, Attr: "val", Value: "Canberra"})
	if det.Len() != 0 {
		t.Errorf("incremental post-repair violations = %d, want 0", det.Len())
	}
	res, err := prep.Detect(ctx, validate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Errorf("session post-repair violations = %d, want 0", len(res.Violations))
	}

	// A second detector reuses the maintained overlay while it is synced.
	det2 := sess.Incremental(set)
	if det2.Overlay() != det.Overlay() {
		t.Error("synced session detector must reuse the maintained overlay")
	}
	// A direct graph mutation desynchronizes it; the next detector gets a
	// fresh view and still agrees with the batch path.
	g.SetAttr(melbourne, "val", "Melbourne")
	det3 := sess.Incremental(set)
	if det3.Overlay() == det2.Overlay() {
		t.Error("desynced session detector must rebuild its view")
	}
	if det3.Len() != 2 {
		t.Errorf("rebuilt detector violations = %d, want 2", det3.Len())
	}
	res, err = prep.Detect(ctx, validate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 2 {
		t.Errorf("session post-unrepair violations = %d, want 2", len(res.Violations))
	}
}
