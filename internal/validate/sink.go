package validate

import (
	"context"
	"sync"
	"sync/atomic"
)

// Sink is the single violation-consumption abstraction every engine emits
// through: detVio, repVal, disVal and the two baselines all deliver each
// violation to Emit as it is found, fused with match enumeration — no
// engine materializes a per-unit match set first. The execution modes
// are sinks over one engine code path:
//
//   - CollectSink — Detect: per-worker shards appended lock-free, merged
//     and sorted into the Report after the run;
//   - CallbackSink — a plain callback (Satisfies, direct engine callers):
//     emissions serialized onto one function under a mutex;
//   - PipeSink — the pull-based iterator (Prepared.Violations): each
//     worker owns a bounded lane, a fan-in merger feeds the consumer, and
//     a full lane applies backpressure to that worker alone.
//
// Emit may be called from concurrent workers; worker identifies the
// calling lane (single-threaded engines pass 0). Returning false tells
// the engine to stop: the refusal propagates through the per-worker
// cancel probes into match enumeration itself (match.Options.Halt), so a
// consumer that has seen enough stops the search mid-class, not at the
// next unit boundary.
type Sink interface {
	Emit(worker int, v Violation) bool
}

// CollectSink accumulates violations into per-worker shards so parallel
// engines append without synchronization; Report merges the shards in
// worker order. Emit never refuses.
type CollectSink struct {
	shards []Report
}

// NewCollectSink returns a collect sink with capacity for workers lanes
// (at least one).
func NewCollectSink(workers int) *CollectSink {
	if workers < 1 {
		workers = 1
	}
	return &CollectSink{shards: make([]Report, workers)}
}

// Emit appends v to the worker's shard. Workers own their shard for the
// duration of a run; cross-round ownership transfer is sequenced by the
// scheduler's superstep barrier.
func (s *CollectSink) Emit(worker int, v Violation) bool {
	if worker < 0 || worker >= len(s.shards) {
		worker = 0
	}
	s.shards[worker] = append(s.shards[worker], v)
	return true
}

// Report returns the union of the shards in worker order (unsorted; the
// engines sort canonically once at the end of a run).
func (s *CollectSink) Report() Report {
	var total int
	for _, sh := range s.shards {
		total += len(sh)
	}
	out := make(Report, 0, total)
	for _, sh := range s.shards {
		out = append(out, sh...)
	}
	return out
}

// CallbackSink serializes violation emissions from concurrent workers
// onto one user callback. Once the callback returns false every worker's
// next Emit fails, stopping the engines.
type CallbackSink struct {
	mu      sync.Mutex
	yield   func(Violation) bool
	stopped atomic.Bool
}

// Callback wraps a yield function as a Sink.
func Callback(yield func(Violation) bool) *CallbackSink {
	return &CallbackSink{yield: yield}
}

// Emit delivers v to the callback under the sink's mutex.
func (s *CallbackSink) Emit(_ int, v Violation) bool {
	if s.stopped.Load() {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped.Load() {
		return false
	}
	if !s.yield(v) {
		s.stopped.Store(true)
		return false
	}
	return true
}

// PipeSink is the asynchronous half of the pull-based violation pipeline:
// every worker emits into its own bounded lane (backpressure is per
// worker — a slow consumer stalls only the workers that outran it, and
// never serializes emissions behind a global mutex), per-lane forwarders
// fan in to one merged channel, and the consumer ranges over Out. The
// sink is bound to the run's context: once it is cancelled — the consumer
// broke out of the loop, or the caller's context died — every blocked
// Emit unwinds immediately and returns false, so no worker can wedge on a
// full lane.
//
// Lifecycle: NewPipeSink starts the forwarders; the engine owner calls
// Close after the engine returns (closing the lanes); Out closes once
// every lane has drained. Consumers must drain Out to completion (the
// iterator in the session layer does) — after cancellation the remaining
// buffered violations are discarded by the forwarders themselves, so the
// drain is prompt.
type PipeSink struct {
	ctx   context.Context
	lanes []chan Violation
	out   chan Violation
	wg    sync.WaitGroup
	once  sync.Once
}

// NewPipeSink builds a pipe sink with one lane per worker, each buffering
// up to buffer violations (DefaultStreamBuffer when <= 0).
func NewPipeSink(ctx context.Context, workers, buffer int) *PipeSink {
	if workers < 1 {
		workers = 1
	}
	if buffer <= 0 {
		buffer = DefaultStreamBuffer
	}
	p := &PipeSink{
		ctx:   ctx,
		lanes: make([]chan Violation, workers),
		out:   make(chan Violation, buffer),
	}
	for i := range p.lanes {
		p.lanes[i] = make(chan Violation, buffer)
		p.wg.Add(1)
		go p.forward(p.lanes[i])
	}
	go func() {
		p.wg.Wait()
		close(p.out)
	}()
	return p
}

// forward drains one lane into the merged output until the lane closes.
// On context cancellation it keeps consuming (and discarding) the lane so
// Close's lane close is never blocked on a dead consumer.
func (p *PipeSink) forward(lane <-chan Violation) {
	defer p.wg.Done()
	for v := range lane {
		select {
		case p.out <- v:
		case <-p.ctx.Done():
			for range lane { // discard the rest; Emit stops refilling
			}
			return
		}
	}
}

// Emit queues v on the worker's lane, blocking while the lane is full —
// the backpressure that bounds the pipeline's memory — and failing once
// the run's context is cancelled.
func (p *PipeSink) Emit(worker int, v Violation) bool {
	if worker < 0 || worker >= len(p.lanes) {
		worker = 0
	}
	select {
	case p.lanes[worker] <- v:
		return true
	case <-p.ctx.Done():
		return false
	}
}

// Close closes the lanes; call exactly once, after the producing engine
// has returned. Out closes once the forwarders drain.
func (p *PipeSink) Close() {
	p.once.Do(func() {
		for _, lane := range p.lanes {
			close(lane)
		}
	})
}

// Out is the merged violation stream. It closes after Close once every
// buffered violation has been delivered (or discarded post-cancel).
func (p *PipeSink) Out() <-chan Violation { return p.out }
