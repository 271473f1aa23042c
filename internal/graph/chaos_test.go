package graph

import (
	"testing"

	"gfd/internal/fault"
)

// TestFreezeShardPanicFallsBackSerial: a shard goroutine panicking inside
// the parallel freeze pipeline must not crash the process or corrupt the
// snapshot — Freeze's builder falls back to the serial one, produces the
// exact snapshot the parallel path would have, and the FreezeFallbacks
// probe records the degradation. The builder runs with an explicit worker
// count, so the parallel path is taken whatever GOMAXPROCS is.
func TestFreezeShardPanicFallsBackSerial(t *testing.T) {
	g := randomFreezeGraph(3, 40000)
	if g.Size() < parallelFreezeMinSize {
		t.Fatalf("graph too small for the parallel freeze path: size %d", g.Size())
	}
	inj := fault.NewPlan(7).PanicAt(fault.FreezeShard, 1).Arm(4)
	SetFreezeInjector(inj)
	defer SetFreezeInjector(nil)

	base := FreezeFallbacks()
	got := buildSnapshotAuto(g, 4)
	if inj.Fired() != 1 {
		t.Fatalf("shard fault never fired (fired = %d); the fallback was not exercised", inj.Fired())
	}
	if n := FreezeFallbacks(); n != base+1 {
		t.Fatalf("FreezeFallbacks = %d, want %d", n, base+1)
	}
	requireSnapshotsEqual(t, buildSnapshot(g), got)
}

// TestExplicitBuildSnapshotPropagatesShardPanic: the explicit differential
// entry point keeps propagating shard panics (no silent fallback) — but as
// a recoverable panic on the calling goroutine, after every surviving
// shard has finished, not as a process abort from an orphan goroutine.
func TestExplicitBuildSnapshotPropagatesShardPanic(t *testing.T) {
	g := randomFreezeGraph(5, 500)
	inj := fault.NewPlan(8).PanicAt(fault.FreezeShard, 2).Arm(4)
	SetFreezeInjector(inj)
	defer SetFreezeInjector(nil)
	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatal("BuildSnapshot swallowed the shard panic")
		}
		if _, ok := rec.(fault.Injected); !ok {
			t.Fatalf("panic value = %v, want the injected fault", rec)
		}
	}()
	g.BuildSnapshot(4)
}
