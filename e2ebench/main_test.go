package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"gfd"
)

// TestMain lets EngineDistributed re-execute the test binary as its
// worker processes, as main does for the benchmark binary.
func TestMain(m *testing.M) {
	gfd.MaybeWorker()
	os.Exit(m.Run())
}

// declared is the metric list of the repository's BENCHMARK.json.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// tiny shrinks a workload so the whole suite runs in seconds.
func tiny(w workloadSpec) workloadSpec {
	w.scale = max(w.scale/6, 60)
	if w.kind == kindUpdate {
		w.scale = 200
		w.stream = 12
	}
	return w
}

// TestEveryMetricAtTinySize runs every workload of BENCHMARK.json at a
// tiny size, untraced and traced, and checks the run is correct, no op
// failed, and the result line carries exactly the declared metrics, each
// with its declared unit.
func TestEveryMetricAtTinySize(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl declared
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(decl.Workloads), len(workloads))
	}
	for _, dw := range decl.Workloads {
		w, err := findWorkload(dw.Name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(w.name, func(t *testing.T) {
			w := tiny(w)
			dir := t.TempDir()
			ctx := context.Background()
			if err := writeInputs(ctx, w, 3, dir); err != nil {
				t.Fatal(err)
			}
			for _, traced := range []bool{false, true} {
				want := decl.EndToEnd
				if traced {
					want = decl.PerLayer
				}
				var out bytes.Buffer
				r, err := measure(ctx, w, 3, dir, t.TempDir(), 0.2, traced, &out)
				if err != nil {
					t.Fatal(err)
				}
				if err := r.print(&out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				frac := ""
				for _, l := range lines {
					if f := strings.Fields(l); len(f) > 2 && f[0] == "metric" && f[1] == "failed_ops_frac" {
						frac = f[2]
					}
				}
				if frac != "0" {
					t.Errorf("traced=%t: failed_ops_frac is %q, want 0:\n%s", traced, frac, out.String())
				}
				var got struct {
					Correct   bool              `json:"correct"`
					Attempted int               `json:"attempted"`
					Failed    int               `json:"failed"`
					Metrics   map[string]metric `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
					t.Fatalf("traced=%t: last line is not the result: %v", traced, err)
				}
				if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
					t.Errorf("traced=%t: correct=%t attempted=%d failed=%d\n%s", traced, got.Correct, got.Attempted, got.Failed, out.String())
				}
				for _, m := range want {
					g, ok := got.Metrics[m.Name]
					if !ok {
						t.Errorf("traced=%t: metric %s not emitted", traced, m.Name)
					} else if g.Unit != m.Unit {
						t.Errorf("traced=%t: metric %s has unit %q, BENCHMARK.json says %q", traced, m.Name, g.Unit, m.Unit)
					}
				}
				if len(got.Metrics) != len(want) {
					t.Errorf("traced=%t: %d metrics emitted, %d declared", traced, len(got.Metrics), len(want))
				}
			}
		})
	}
}
