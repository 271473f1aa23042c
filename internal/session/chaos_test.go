// Chaos coverage of the session facade: Prepared.Violations and
// Prepared.Detect must keep the runtime's failure semantics — exactly-once
// delivery under retries, voluntary early stop, honest partial errors —
// when driven through the public lifecycle rather than the engine
// functions directly.
package session_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"gfd/internal/fault"
	"gfd/internal/gen"
	"gfd/internal/session"
	"gfd/internal/validate"
)

// chaosWorkload prepares a noisy mined workload dense enough that faults
// land mid-detection, plus its fault-free reference report.
func chaosWorkload(t *testing.T) (*session.Prepared, *validate.Result) {
	t.Helper()
	g := gen.YAGO2Like(gen.DatasetConfig{Scale: 300, Seed: 9})
	set := gen.MineGFDs(g, gen.MineConfig{NumRules: 6, PatternSize: 4, TwoCompFrac: 0.3, Seed: 13})
	if set.Len() == 0 {
		t.Fatal("no rules mined")
	}
	gen.Inject(g, gen.NoiseConfig{Rate: 0.3, Seed: 11})
	prep, err := mustOpen(t, g).Prepare(set)
	if err != nil {
		t.Fatal(err)
	}
	base, err := prep.Detect(context.Background(), validate.Options{Engine: validate.EngineReplicated, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Violations) == 0 {
		t.Fatal("workload produced no violations; chaos assertions would be vacuous")
	}
	return prep, base
}

// TestStreamUnderFaults: streamed violation sets under seed-derived
// recoverable fault plans equal the fault-free Detect report (exactly-once
// across retries), and an early break under a worker kill terminates
// cleanly — exactly one violation arrives, no error surfaces, and no
// goroutine is left behind.
func TestStreamUnderFaults(t *testing.T) {
	ctx := context.Background()
	prep, base := chaosWorkload(t)
	before := runtime.NumGoroutine()

	for seed := int64(1); seed <= 4; seed++ {
		plan := fault.FromSeed(seed, 4, base.Units)
		var got validate.Report
		for v, err := range prep.Violations(ctx, validate.Options{Engine: validate.EngineReplicated, N: 4, Inject: plan}) {
			if err != nil {
				t.Fatalf("%v: %v", plan, err)
			}
			got = append(got, v)
		}
		got.Sort()
		if !got.Equal(base.Violations) {
			t.Fatalf("%v: streamed set diverged from fault-free Detect (%d vs %d)",
				plan, len(got), len(base.Violations))
		}

		stopPlan := fault.NewPlan(seed).KillWorker(int(seed)%4, 0)
		seen := 0
		for _, err := range prep.Violations(ctx, validate.Options{Engine: validate.EngineReplicated, N: 4, Inject: stopPlan}) {
			if err != nil {
				t.Fatalf("%v: early-stopped stream returned %v", stopPlan, err)
			}
			seen++
			break
		}
		if seen != 1 {
			t.Fatalf("%v: saw %d violations after breaking at the first", stopPlan, seen)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDetectPartialThroughSession: an unrecoverable plan surfaces through
// the facade as ErrPartial with the census attached to the result — the
// session layer must not flatten the typed failure.
func TestDetectPartialThroughSession(t *testing.T) {
	g, set := minedWorkload(t, 7)
	prep, err := mustOpen(t, g).Prepare(set)
	if err != nil {
		t.Fatal(err)
	}
	plan := fault.NewPlan(9).KillWorker(0, 0).KillWorker(1, 0)
	res, err := prep.Detect(context.Background(),
		validate.Options{Engine: validate.EngineReplicated, N: 2, Inject: plan})
	if !errors.Is(err, validate.ErrPartial) {
		t.Fatalf("err = %v, want ErrPartial", err)
	}
	var pe *validate.PartialError
	if !errors.As(err, &pe) || len(pe.Failures) == 0 {
		t.Fatalf("err = %v, want *PartialError with failures", err)
	}
	c := res.Completeness
	if c.Complete() || c.WorkerDeaths != 2 || c.Failed != len(pe.Failures) {
		t.Fatalf("census inconsistent with failure list: %+v vs %d failures", c, len(pe.Failures))
	}
}
