package main

import (
	"math"
	"os"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (NaN for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// allocCounter reads the runtime's cumulative heap-allocation counter
// without stopping the world, so it can bracket every op.
type allocCounter struct{ sample []metrics.Sample }

func newAllocCounter() *allocCounter {
	return &allocCounter{sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (a *allocCounter) bytes() uint64 {
	metrics.Read(a.sample)
	return a.sample[0].Value.Uint64()
}

// rssSampler tracks the peak resident memory of this process while it
// runs, by reading /proc/self/statm every rssPeriod. It brackets the op
// loop only, so the set-ups (whose peak is the text parser's garbage, and
// which are timed separately) do not set it.
type rssSampler struct {
	stop, done chan struct{}
	paused     atomic.Bool // set while update-mix restarts its stream, untimed
	peak       int64       // bytes; written by the sampling goroutine until done closes
}

const rssPeriod = 10 * time.Millisecond

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssPeriod)
		defer t.Stop()
		for {
			if !s.paused.Load() {
				s.peak = max(s.peak, residentBytes())
			}
			select {
			case <-s.stop:
				s.peak = max(s.peak, residentBytes())
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// stopMB stops the sampler and returns the peak in MB, adding, when the
// run spawned dist workers, that many times the largest worker's peak:
// the kernel keeps only the maximum over waited-for children, and the
// workers of one drain run side by side.
func (s *rssSampler) stopMB(workers int) float64 {
	close(s.stop)
	<-s.done
	peak := float64(s.peak)
	var children syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_CHILDREN, &children) == nil && children.Maxrss > 0 {
		peak += float64(workers) * float64(children.Maxrss) * 1024
	}
	return peak / (1 << 20)
}

// residentBytes reads the resident set size of this process, falling back
// to the lifetime peak where /proc is not available.
func residentBytes() int64 {
	if data, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 1 {
			if pages, err := strconv.ParseInt(f[1], 10, 64); err == nil {
				return pages * int64(os.Getpagesize())
			}
		}
	}
	var self syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self) // cannot fail with a valid who and pointer
	return self.Maxrss * 1024
}
