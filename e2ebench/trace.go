package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the benchmark made into a module: its name (the
// layer, e.g. "validate.drain"), start and end relative to the tracer's
// origin, the index of the span that caused it (-1 for a root) and the id
// of the op it belongs to (-1 outside ops: set-up and probes).
type span struct {
	name       string
	start, end time.Duration
	parent     int
	op         int
}

// tracer records spans in memory from the benchmark's single client
// goroutine and writes them out once, when the run ends. A nil tracer is
// the untraced run: every method is a nil check.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int // stack of unfinished spans; the top is the parent of the next
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<14)}
}

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string, op int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.origin), parent: parent, op: op})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

// end closes span i, which must be the innermost open one.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].end = time.Since(t.origin)
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns, per span, its duration minus the time its direct
// children cover. Children run on the same goroutine as their parent, so
// they never overlap and their durations simply add up.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// selfMS collects the self times (ms) of every span with the given name.
func (t *tracer) selfMS(name string) []float64 { return t.selfMSIn(name, false) }

// opSelfMS is selfMS restricted to spans inside ops.
func (t *tracer) opSelfMS(name string) []float64 { return t.selfMSIn(name, true) }

func (t *tracer) selfMSIn(name string, opsOnly bool) []float64 {
	self := t.selfTimes()
	var out []float64
	for i, s := range t.spans {
		if s.name == name && (!opsOnly || s.op >= 0) {
			out = append(out, ms(self[i]))
		}
	}
	return out
}

// write dumps every span as a tab-separated line:
// index, parent, op, name, start_us, end_us, self_us.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "index\tparent\top\tname\tstart_us\tend_us\tself_us")
	self := t.selfTimes()
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\n", i, s.parent, s.op, s.name,
			s.start.Microseconds(), s.end.Microseconds(), self[i].Microseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
