// Command e2ebench is the end-to-end benchmark of GFD violation detection:
// one closed-loop client that drives the public session API over inputs
// generated from a seed and written to files before any timing, checks
// every op against an EngineSequential reference, and prints every metric
// by name and unit. See README.md in this directory for the workloads, the
// metrics and which layer should move which end-to-end number.
//
// A run is two processes, started by run.sh:
//
//	e2ebench inputs  --workload W --seed N --dir D   # generate + reference
//	e2ebench measure --workload W --seed N --dir D --seconds S --trace 0|1
//
// The last line of measure's standard output is one JSON object with the
// keys correct, attempted, failed and metrics; with --trace 0 the metrics
// are the end-to-end ones, with --trace 1 the per-layer ones.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"gfd"
)

type kind int

const (
	kindKG     kind = iota // batch detection on a knowledge-graph-style graph
	kindCyclic             // batch detection with cyclic, shared-core patterns
	kindUpdate             // update batches + reads through the incremental detector
	kindDist               // detection by worker processes over persisted shards
)

// workloadSpec sizes one workload. Sizes were chosen by measured work (unit
// counts, op latency) rather than by scale; README.md records them.
type workloadSpec struct {
	name   string
	kind   kind
	scale  int     // generator scale
	single int     // kg-style: one-component mined rules
	two    int     // kg-style: two-component mined rules
	noise  float64 // kg-style: share of nodes given attribute noise
	batch  int     // update-mix: updates per batch
	stream int     // update-mix: batches per round (the stream replays from the base graph)
}

// setupReps is how many set-ups a run times; setup_s is their median.
const setupReps = 5

// minOps is how many ops a run makes even when its time is up: enough for
// a median on the detect and dist workloads, one full round of the update
// stream on update-mix.
func (w workloadSpec) minOps() int { return max(w.stream, 10) }

var workloads = []workloadSpec{
	{name: "kg-detect", kind: kindKG, scale: 450, single: 6, two: 2, noise: 0.3},
	{name: "cyclic-detect", kind: kindCyclic, scale: 80},
	{name: "update-mix", kind: kindUpdate, scale: 2000, single: 8, two: 0, noise: 0.3, batch: 32, stream: 200},
	{name: "dist-shards", kind: kindDist, scale: 600, single: 8, two: 0, noise: 0.3},
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

func main() {
	// EngineDistributed re-executes this binary as its worker processes.
	gfd.MaybeWorker()
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: e2ebench inputs|measure --workload W --seed N --dir D [--seconds S --trace 0|1]")
	}
	fs := flag.NewFlagSet(args[0], flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	dir := fs.String("dir", "", "directory holding the run's input files")
	seconds := fs.Float64("seconds", 10, "how long the op loop measures")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	state := fs.String("state", "", "directory kept across runs: structural counts per (binary, workload, seed) to flag drift, and the traced runs' spans")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("--dir is required")
	}
	switch args[0] {
	case "inputs":
		return writeInputs(ctx, w, *seed, *dir)
	case "measure":
		r, err := measure(ctx, w, *seed, *dir, *state, *seconds, *trace == 1, stdout)
		if err != nil {
			return err
		}
		if *state != "" {
			drift, err := checkDrift(filepath.Join(*state, "records"), w.name, *seed, r.counts)
			if err != nil {
				return err
			}
			for _, d := range drift {
				fmt.Fprintln(stdout, "DRIFT", d)
				r.correct = false
			}
		}
		return r.print(stdout)
	}
	return fmt.Errorf("unknown command %q", args[0])
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // samples behind it (0: a single measurement)
}

// result is one run's outcome.
type result struct {
	correct           bool
	attempted, failed int
	metrics           map[string]metric
	order             []string
	counts            []count // structural counts, printed with every run
}

type count struct {
	name  string
	value int64
}

func (r *result) add(name, unit string, v float64, n int) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit, n: n}
}

// print writes the human-readable table, then the JSON result line last.
func (r *result) print(w io.Writer) error {
	for _, c := range r.counts {
		fmt.Fprintf(w, "count  %-28s %d\n", c.name, c.value)
	}
	frac := float64(r.failed) / float64(max(r.attempted, 1))
	fmt.Fprintf(w, "metric %-28s %.6g %s (failed %d of %d ops)\n", "failed_ops_frac", frac, "frac", r.failed, r.attempted)
	for _, name := range r.order {
		m := r.metrics[name]
		fmt.Fprintf(w, "metric %-28s %.6g %s (n=%d)\n", name, m.Value, m.Unit, m.n)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// checkDrift compares this run's structural counts with the ones recorded
// by earlier runs of the same binary, workload and seed, and records any
// count seen for the first time. Counts are functions of the inputs and
// the code alone, so any difference is nondeterminism worth flagging.
func checkDrift(dir, workload string, seed int64, counts []count) ([]string, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	sum, err := fileDigest(exe)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-seed%d.json", sum, workload, seed))
	seen := map[string]int64{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &seen); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	var drift []string
	for _, c := range counts {
		if old, ok := seen[c.name]; ok && old != c.value {
			drift = append(drift, fmt.Sprintf("%s: %d in an earlier run of seed %d, %d now", c.name, old, seed, c.value))
		} else if !ok {
			seen[c.name] = c.value
		}
	}
	data, err := json.Marshal(seen)
	if err != nil {
		return nil, err
	}
	return drift, os.WriteFile(path, data, 0o644)
}
