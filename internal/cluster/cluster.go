// Package cluster is the distributed-runtime substrate for the parallel
// validation algorithms of Section 6. The paper evaluated on 20 Amazon EC2
// instances; this package substitutes an in-process simulated cluster
// (see README.md, "Simulated cluster and scaled-down datasets"): a
// coordinator plus n workers running as goroutines, with every
// cross-worker data movement routed through a byte-counting message layer
// and charged against a configurable network cost model.
//
// Computation parallelism is real (goroutines across cores); communication
// *cost* is modeled exactly as the paper's CC(w) = c_s·|M|, so the
// communication-time figures (Fig. 5(j–l)) are regenerated from bytes
// shipped rather than wall-clock socket time.
package cluster

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"gfd/internal/fault"
)

// CostModel prices simulated communication in BSP style: each
// communication round (superstep barrier) costs one latency, and each
// receiver's occupancy is its received bytes over the link bandwidth.
// Messages within a round overlap — they are not serialized at the
// receiver — which is how the paper's algorithms batch their exchanges.
type CostModel struct {
	LatencyPerRound time.Duration // barrier/propagation cost per communication round
	BytesPerSecond  int64         // link bandwidth per worker
}

// DefaultCostModel is a 1 Gbit/s network with 0.5 ms per round, the
// gigabit-datacenter setting of the paper's EC2 cluster.
func DefaultCostModel() CostModel {
	return CostModel{LatencyPerRound: 500 * time.Microsecond, BytesPerSecond: 125_000_000}
}

// Cluster is a coordinator with n workers. The zero value is unusable; use
// New.
type Cluster struct {
	n     int
	model CostModel
	inj   *fault.Injector // armed fault plan; nil in production (no-op crossings)

	mu         sync.Mutex
	recvBytes  []int64 // bytes received per worker (coordinator = index n)
	recvMsgs   []int64
	totalBytes int64
	totalMsgs  int64
	rounds     int64 // communication rounds (BSP supersteps with exchange)
}

// WorkerError is the typed failure a recovered worker panic converts to:
// the worker that died, the work unit it was executing (-1 when the panic
// was not unit-scoped — e.g. during estimation), the panic value, and the
// goroutine stack at recovery. One process-tearing panic becomes one
// inspectable error; the coordinator decides what to retry.
type WorkerError struct {
	Worker int
	Unit   int
	Panic  any
	Stack  []byte
}

// Error summarizes the death without the stack; use Stack when debugging.
func (e *WorkerError) Error() string {
	if e.Unit >= 0 {
		return fmt.Sprintf("cluster: worker %d died on unit %d: %v", e.Worker, e.Unit, e.Panic)
	}
	return fmt.Sprintf("cluster: worker %d died: %v", e.Worker, e.Panic)
}

// Recovered converts a recovered panic value into a WorkerError carrying
// the current stack. Call it from a deferred recover with r != nil.
func Recovered(worker, unit int, r any) *WorkerError {
	return &WorkerError{Worker: worker, Unit: unit, Panic: r, Stack: debug.Stack()}
}

// Arm threads an armed fault injector through the cluster: Ship crossings
// consult it. A nil injector (the production state) keeps every crossing a
// nil check.
func (c *Cluster) Arm(inj *fault.Injector) { c.inj = inj }

// Coordinator is the pseudo-worker index used for shipments to/from the
// coordinator S_c.
const Coordinator = -1

// New creates a cluster of n workers with the given cost model.
func New(n int, model CostModel) *Cluster {
	if n < 1 {
		n = 1
	}
	return &Cluster{
		n:         n,
		model:     model,
		recvBytes: make([]int64, n+1),
		recvMsgs:  make([]int64, n+1),
	}
}

// N returns the number of workers.
func (c *Cluster) N() int { return c.n }

func (c *Cluster) slot(worker int) int {
	if worker == Coordinator {
		return c.n
	}
	return worker
}

// Ship records a data shipment of the given size from one worker (or the
// coordinator) to another. It is safe for concurrent use.
func (c *Cluster) Ship(from, to int, bytes int64) {
	if from == to {
		return // local access is free
	}
	c.inj.Cross(fault.Ship, to, -1)
	c.mu.Lock()
	c.recvBytes[c.slot(to)] += bytes
	c.recvMsgs[c.slot(to)]++
	c.totalBytes += bytes
	c.totalMsgs++
	c.mu.Unlock()
}

// Run executes task(workerID) on n goroutines and waits for all of them —
// one BSP superstep. A panicking task no longer tears down the process:
// each worker recovers independently into a *WorkerError (unit -1), the
// surviving workers drain, and the joined errors are returned.
func (c *Cluster) Run(task func(worker int)) error {
	errs := make([]error, c.n)
	var wg sync.WaitGroup
	wg.Add(c.n)
	for w := 0; w < c.n; w++ {
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[w] = Recovered(w, -1, r)
				}
			}()
			task(w)
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// RunMeasured executes one BSP superstep of n *logical* workers and
// returns each worker's busy time. OS-level concurrency is capped at the
// physical core count so busy times measure actual compute rather than
// scheduler contention; the caller derives the modeled parallel span as
// the maximum busy time. This is what lets the simulation report faithful
// n-worker scaling on a host with fewer cores than n (see README.md,
// "Simulated cluster and scaled-down datasets").
//
// Panic isolation matches Run: a dying worker is recovered into a
// *WorkerError while the others drain, and the joined errors are returned
// alongside the busy times (a dead worker's busy time covers up to its
// death). Callers that recover inside task (the detection scheduler does,
// to keep unit context) will never see an error here — this is the safety
// net for the fan-outs that do not.
func (c *Cluster) RunMeasured(task func(worker int)) ([]time.Duration, error) {
	limit := runtime.NumCPU()
	if limit > c.n {
		limit = c.n
	}
	if limit < 1 {
		limit = 1
	}
	sem := make(chan struct{}, limit)
	busy := make([]time.Duration, c.n)
	errs := make([]error, c.n)
	var wg sync.WaitGroup
	wg.Add(c.n)
	for w := 0; w < c.n; w++ {
		go func(w int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			start := time.Now()
			defer func() {
				busy[w] = time.Since(start)
				if r := recover(); r != nil {
					errs[w] = Recovered(w, -1, r)
				}
			}()
			task(w)
		}(w)
	}
	wg.Wait()
	return busy, errors.Join(errs...)
}

// MaxSpan returns the largest busy time — the modeled parallel duration of
// a superstep.
func MaxSpan(busy []time.Duration) time.Duration {
	var max time.Duration
	for _, b := range busy {
		if b > max {
			max = b
		}
	}
	return max
}

// Stats is a snapshot of the communication accounting.
type Stats struct {
	Workers     int
	TotalBytes  int64
	TotalMsgs   int64
	PerWorker   []int64 // bytes received per worker
	Coordinator int64   // bytes received by the coordinator
}

// Stats returns the current communication totals.
func (c *Cluster) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	per := append([]int64(nil), c.recvBytes[:c.n]...)
	return Stats{
		Workers:     c.n,
		TotalBytes:  c.totalBytes,
		TotalMsgs:   c.totalMsgs,
		PerWorker:   per,
		Coordinator: c.recvBytes[c.n],
	}
}

// EndRound marks the end of one communication round (a BSP exchange
// barrier); each round costs one LatencyPerRound in the modeled time.
func (c *Cluster) EndRound() {
	c.mu.Lock()
	c.rounds++
	c.mu.Unlock()
}

// CommTime returns the modeled parallel communication time: shipments to
// different workers overlap, so occupancy is the maximum per-receiver
// bytes over the bandwidth, plus one latency per communication round.
// This is the quantity plotted in Fig. 5(j–l).
func (c *Cluster) CommTime() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	var worstBytes int64
	for i := 0; i <= c.n; i++ {
		if c.recvBytes[i] > worstBytes {
			worstBytes = c.recvBytes[i]
		}
	}
	t := time.Duration(c.rounds) * c.model.LatencyPerRound
	if c.model.BytesPerSecond > 0 {
		t += time.Duration(float64(worstBytes) / float64(c.model.BytesPerSecond) * float64(time.Second))
	}
	return t
}

// Reset clears the communication accounting (between experiment runs).
func (c *Cluster) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.recvBytes {
		c.recvBytes[i] = 0
		c.recvMsgs[i] = 0
	}
	c.totalBytes, c.totalMsgs, c.rounds = 0, 0, 0
}

func (c *Cluster) String() string {
	s := c.Stats()
	return fmt.Sprintf("cluster(n=%d, shipped=%dB in %d msgs)", s.Workers, s.TotalBytes, s.TotalMsgs)
}
