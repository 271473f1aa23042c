// gfdbench runs the paper's experiment sweeps (Section 7) and prints
// paper-style tables. Each -exp value corresponds to a figure or table of
// the evaluation; `-exp all` runs everything.
//
// Usage:
//
//	gfdbench -exp fig5a          # time vs n on the DBpedia stand-in
//	gfdbench -exp fig9 -scale 400
//	gfdbench -exp all -scale 200 # quick full sweep
//	gfdbench -exp fig6 -json     # also write BENCH_fig6.json
//
// With -json, every experiment additionally writes a machine-readable
// BENCH_<exp>.json file (config + result rows) so perf trajectories can be
// tracked across commits.
//
// BENCH_baselines/ holds the committed measured tables the CI gate diffs
// against.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"gfd/internal/dist"
	"gfd/internal/exp"
)

func main() {
	// The dist experiment spawns this binary as its worker processes;
	// when the worker environment is set, become one and never return.
	dist.MaybeWorker()
	var (
		which      = flag.String("exp", "all", "fig5a|fig5b|fig5c|fig5sigma|fig5q|fig5comm|fig6|fig7|fig8|fig9|speedup|sessionreuse|incremental|freeze|stream|coldstart|cyclic|dist|all")
		scale      = flag.Int("scale", 250, "dataset scale")
		rules      = flag.Int("rules", 8, "rule count ‖Σ‖")
		qsize      = flag.Int("q", 4, "pattern size |Q| (nodes)")
		seed       = flag.Int64("seed", 42, "deterministic seed")
		twoFrac    = flag.Float64("two-comp", 0.3, "fraction of two-component rules")
		graphPath  = flag.String("graph", "", "run experiments over this graph file (text or .gfds snapshot) instead of generating one")
		rulePath   = flag.String("rulefile", "", "parse Σ from this rule file instead of mining")
		jsonOut    = flag.Bool("json", false, "write BENCH_<exp>.json result files")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this file (go tool pprof)")
		memProfile = flag.String("memprofile", "", "write an allocation profile to this file after the run (go tool pprof)")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gfdbench: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "gfdbench: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "gfdbench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live objects so the profile shows retention, not garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "gfdbench: -memprofile: %v\n", err)
			}
		}()
	}

	// Fail early and readably on bad file inputs; the harness itself
	// panics on unreadable paths.
	for _, p := range []string{*graphPath, *rulePath} {
		if p != "" {
			if _, err := os.Stat(p); err != nil {
				fmt.Fprintf(os.Stderr, "gfdbench: %v\n", err)
				os.Exit(2)
			}
		}
	}

	base := func(dataset string) exp.Config {
		return exp.Config{
			Dataset: dataset, Scale: *scale, Rules: *rules,
			PatternSize: *qsize, TwoCompFrac: *twoFrac, Seed: *seed,
			GraphPath: *graphPath, RulesPath: *rulePath,
		}
	}

	// Each experiment prints its paper-style rendering and returns the raw
	// result for the optional JSON emission.
	run := map[string]func() any{
		"fig5a": func() any { t := exp.Fig5VaryN(base("dbpedia"), nil); fmt.Println(t); return t },
		"fig5b": func() any { t := exp.Fig5VaryN(base("yago2"), nil); fmt.Println(t); return t },
		"fig5c": func() any { t := exp.Fig5VaryN(base("pokec"), nil); fmt.Println(t); return t },
		"fig5sigma": func() any {
			var ts []exp.Table
			for _, ds := range []string{"dbpedia", "yago2", "pokec"} {
				t := exp.Fig5VarySigma(base(ds), nil)
				fmt.Println(t)
				ts = append(ts, t)
			}
			return ts
		},
		"fig5q": func() any {
			var ts []exp.Table
			for _, ds := range []string{"dbpedia", "yago2", "pokec"} {
				t := exp.Fig5VaryQ(base(ds), nil)
				fmt.Println(t)
				ts = append(ts, t)
			}
			return ts
		},
		"fig5comm": func() any {
			var ts []exp.Table
			for _, ds := range []string{"dbpedia", "yago2", "pokec"} {
				t := exp.Fig5Comm(base(ds), nil)
				fmt.Println(t)
				ts = append(ts, t)
			}
			return ts
		},
		"fig6": func() any {
			c := base("synthetic")
			c.Scale = *scale / 2
			t := exp.Fig6ScaleG(c, nil)
			fmt.Println(t)
			return t
		},
		"fig7": func() any {
			fmt.Println("Fig 7 — real-life GFDs on the YAGO2 stand-in")
			fmt.Printf("%-28s%10s%12s%8s\n", "rule", "injected", "violations", "caught")
			findings := exp.Fig7RealLife(*scale, 5, *seed)
			for _, f := range findings {
				fmt.Printf("%-28s%10d%12d%8d\n", f.Rule, f.Injected, f.Violations, f.Caught)
			}
			fmt.Println()
			return findings
		},
		"fig8": func() any { t := exp.Fig8Skew(base("synthetic"), nil); fmt.Println(t); return t },
		"fig9": func() any {
			c := base("yago2")
			c.TwoCompFrac = 0.5
			c.Rules = max(*rules, 12)
			c.NoiseRate = 0.05
			fmt.Println("Fig 9 — accuracy and time vs baselines (YAGO2 stand-in)")
			fmt.Printf("%-12s%8s%8s%8s%12s\n", "model", "recall", "prec.", "rules", "time")
			rows := exp.Fig9Accuracy(c)
			for _, r := range rows {
				fmt.Printf("%-12s%8.2f%8.2f%8d%12v\n", r.Model, r.Recall, r.Precision, r.Rules, r.Time.Round(0))
			}
			fmt.Println()
			return rows
		},
		"sessionreuse": func() any {
			t := exp.SessionReuse(base("yago2"), 5)
			fmt.Println(t)
			return t
		},
		"stream": func() any {
			t := exp.Stream(base("yago2"), 5)
			fmt.Println(t)
			return t
		},
		"dist": func() any {
			t := exp.Dist(base("yago2"), 3)
			fmt.Println(t)
			if d, ok := t.Get("dist_procs", "ms"); ok {
				if s, ok := t.Get("disval_sim", "ms"); ok && d > 0 {
					fmt.Printf("process-per-shard wall is %.2fx the in-process simulation (real pipes + spawn vs modeled comm)\n\n", d/s)
				}
			}
			return t
		},
		"coldstart": func() any {
			t := exp.Coldstart(base("yago2"), 5)
			fmt.Println(t)
			if r, ok := exp.ColdstartRatio(t); ok {
				fmt.Printf("snapshot open reaches the first violation at %.2fx of the build+freeze wall\n\n", r)
			}
			return t
		},
		"incremental": func() any {
			t := exp.Incremental(base("yago2"), 20, 6)
			fmt.Println(t)
			return t
		},
		"freeze": func() any {
			t := exp.Freeze(base("yago2"), []int{2, 4})
			fmt.Println(t)
			if s, ok := exp.FreezeSpeedup(t, 4); ok {
				fmt.Printf("parallel speedup at 4 workers: %.2fx (GOMAXPROCS-bound; Freeze itself builds with GOMAXPROCS workers)\n\n", s)
			}
			return t
		},
		"cyclic": func() any {
			wco := exp.Cyclic(base("synthetic"), 3)
			fmt.Println(wco)
			for _, r := range wco.Rows {
				if s := exp.CyclicSpeedups(wco)[r.X]; s > 0 {
					fmt.Printf("%s: intersection %.2fx over probe backtracking\n", r.X, s)
				}
			}
			fmt.Println()
			fac := exp.CyclicFactor(base("synthetic"), 3)
			fmt.Println(fac)
			if per, ok := fac.Get("group4", "perrule_ms"); ok {
				if f, ok := fac.Get("group4", "factored_ms"); ok && f > 0 {
					fmt.Printf("factorized group detection %.2fx over per-rule enumeration\n\n", per/f)
				}
			}
			return []exp.Table{wco, fac}
		},
		"speedup": func() any {
			fmt.Println("Exp-1 — parallel speedup n=4 -> n=20")
			out := map[string]map[string]float64{}
			for _, ds := range []string{"dbpedia", "yago2", "pokec"} {
				t := exp.Fig5VaryN(base(ds), []int{4, 20})
				s := exp.SpeedupSummary(t)
				out[ds] = s
				fmt.Printf("%-10s", ds)
				for _, alg := range exp.SixAlgorithms {
					fmt.Printf("  %s=%.2fx", alg, s[alg])
				}
				fmt.Println()
			}
			fmt.Println()
			return out
		},
	}

	names := []string{*which}
	if *which == "all" {
		names = []string{"fig5a", "fig5b", "fig5c", "fig5sigma", "fig5q", "fig5comm",
			"fig6", "fig7", "fig8", "fig9", "speedup", "sessionreuse", "incremental", "freeze", "stream", "coldstart", "cyclic", "dist"}
	}
	for _, name := range names {
		f, ok := run[strings.ToLower(name)]
		if !ok {
			fmt.Fprintf(os.Stderr, "gfdbench: unknown experiment %q\n", name)
			os.Exit(2)
		}
		result := f()
		if *jsonOut {
			if err := writeJSON(name, *scale, *rules, *qsize, *seed, result); err != nil {
				fmt.Fprintf(os.Stderr, "gfdbench: %v\n", err)
				os.Exit(1)
			}
		}
	}
}

// benchFile is the schema of a BENCH_<exp>.json emission.
type benchFile struct {
	Experiment string `json:"experiment"`
	Timestamp  string `json:"timestamp"`
	Scale      int    `json:"scale"`
	Rules      int    `json:"rules"`
	PatternQ   int    `json:"pattern_q"`
	Seed       int64  `json:"seed"`
	Result     any    `json:"result"`
}

func writeJSON(name string, scale, rules, qsize int, seed int64, result any) error {
	path := fmt.Sprintf("BENCH_%s.json", name)
	data, err := json.MarshalIndent(benchFile{
		Experiment: name,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Scale:      scale,
		Rules:      rules,
		PatternQ:   qsize,
		Seed:       seed,
		Result:     result,
	}, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal %s: %w", path, err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
