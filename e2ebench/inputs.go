package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"gfd"
	"gfd/internal/core"
	"gfd/internal/gen"
	"gfd/internal/graph"
	"gfd/internal/incremental"
	"gfd/internal/pattern"
	"gfd/internal/reason"
)

// Input files of one run. The measuring process only ever reads these;
// it never sees the seed-driven generators below.
const (
	graphFile     = "graph.txt"      // text graph (kg-detect, cyclic-detect, update-mix)
	snapshotFile  = "graph.gfds"     // persisted snapshot (dist-shards)
	shardPrefix   = "shard"          // per-fragment shards + <prefix>.manifest (dist-shards)
	rulesFile     = "rules.gfd"      // Σ in the rule-file format
	updatesFile   = "updates.txt"    // update-mix batches, one update per line
	referenceFile = "reference.txt"  // EngineSequential violation keys, one per line
	digestFile    = "digests.txt"    // sha256 of every input file
	manifestFile  = "shard.manifest" // written by gfd.WriteShards
)

// writeInputs generates the workload's inputs from the seed, writes them
// under dir, then computes the EngineSequential reference on a copy
// loaded back from those files and writes it next to them. It runs in its
// own process, before the measuring one starts, so generation never
// shows in the measured process's memory or timings.
func writeInputs(ctx context.Context, w workloadSpec, seed int64, dir string) error {
	switch w.kind {
	case kindCyclic:
		g := cyclicGraph(w.scale, seed)
		if err := writeGraph(filepath.Join(dir, graphFile), g); err != nil {
			return err
		}
		if err := writeRules(filepath.Join(dir, rulesFile), cyclicRules()); err != nil {
			return err
		}
	default:
		g, set, err := kgInputs(w, seed)
		if err != nil {
			return err
		}
		if err := writeRules(filepath.Join(dir, rulesFile), set); err != nil {
			return err
		}
		switch w.kind {
		case kindDist:
			if err := gfd.SaveSnapshot(ctx, g, filepath.Join(dir, snapshotFile)); err != nil {
				return err
			}
			manifest, err := gfd.WriteShards(g, nproc(), "hash", dir, shardPrefix)
			if err != nil {
				return err
			}
			if manifest != filepath.Join(dir, manifestFile) {
				return fmt.Errorf("shard manifest written to %s, expected %s", manifest, manifestFile)
			}
		default:
			if err := writeGraph(filepath.Join(dir, graphFile), g); err != nil {
				return err
			}
		}
		if w.kind == kindUpdate {
			ups := updateStream(g, w.stream, w.batch, seed)
			if err := writeUpdates(filepath.Join(dir, updatesFile), ups); err != nil {
				return err
			}
		}
	}
	ref, err := referenceKeys(ctx, w, dir)
	if err != nil {
		return err
	}
	if len(ref) == 0 {
		return fmt.Errorf("%s: the EngineSequential reference is empty; the workload would check nothing", w.name)
	}
	if err := writeLines(filepath.Join(dir, referenceFile), ref); err != nil {
		return err
	}
	return writeDigests(dir)
}

// mineSeed is the seed of the graph the kg-style rules are mined on. The
// run's graph, its noise and the update stream follow the run's seed; the
// rules do not, so every seed validates rules of the same shapes over
// label classes of the same sizes, and so schedules the same amount of
// work, while the data they run on changes with the seed. Entity values
// are numbered the same way in every YAGO2-like graph, so the constants
// the rules bind exist in all of them.
const mineSeed = 2

// kgInputs builds the knowledge-graph-style workload: a YAGO2-like graph,
// rules of a fixed composition (w.single one-component and w.two
// two-component rules) mined on a clean graph of the same scale, then noise
// injected into the graph: random attribute noise at rate w.noise, plus
// noise targeted at the rules' matches, so every seed has violations to
// find.
func kgInputs(w workloadSpec, seed int64) (*graph.Graph, *core.Set, error) {
	g := gen.YAGO2Like(gen.DatasetConfig{Scale: w.scale, Seed: seed})
	ruleGraph := gen.YAGO2Like(gen.DatasetConfig{Scale: w.scale, Seed: mineSeed})
	var rules []*core.GFD
	single := gen.MineGFDs(ruleGraph, gen.MineConfig{NumRules: w.single, PatternSize: 4, TwoCompFrac: 0, Seed: mineSeed})
	for _, f := range single.Rules() {
		if len(f.Q.Components()) == 1 {
			rules = append(rules, f)
		}
	}
	if len(rules) != w.single {
		return nil, nil, fmt.Errorf("%s: mined %d one-component rules, want %d", w.name, len(rules), w.single)
	}
	two := 0
	for attempt := int64(0); two < w.two && attempt < 20; attempt++ {
		mined := gen.MineGFDs(ruleGraph, gen.MineConfig{NumRules: 2 * w.two, PatternSize: 4, TwoCompFrac: 1, Seed: mineSeed + 1 + 100*attempt})
		for _, f := range mined.Rules() {
			if two < w.two && len(f.Q.Components()) == 2 && !sameRule(rules, f) {
				rules = append(rules, f)
				two++
			}
		}
	}
	if two != w.two {
		return nil, nil, fmt.Errorf("%s: mined %d two-component rules, want %d", w.name, two, w.two)
	}
	set := core.MustNewSet()
	for i, f := range rules {
		if pattern.HasCycle(f.Q) {
			return nil, nil, fmt.Errorf("%s: mined rule %s is cyclic", w.name, f.Name)
		}
		r, err := core.New(fmt.Sprintf("kg%d", i), f.Q, f.X, f.Y)
		if err != nil {
			return nil, nil, err
		}
		if err := set.Add(r); err != nil {
			return nil, nil, err
		}
	}
	// The parallel engines validate the implication-reduced set; a rule
	// implied by the others would make their violation set differ from
	// the sequential reference by rule name, so implied rules are dropped
	// here.
	set = reason.Reduce(set)
	gen.Inject(g, gen.NoiseConfig{Rate: w.noise, Seed: seed + 1,
		Kinds: []gen.NoiseKind{gen.AttributeNoise, gen.RepresentationalNoise}})
	gen.InjectTargeted(g, set, targetedNoise, seed+5)
	return g, set, nil
}

// targetedNoise is the share of each rule's antecedent-satisfying matches
// that get one of their literal attributes corrupted.
const targetedNoise = 0.1

// sameRule reports whether rules already holds f up to its name.
func sameRule(rules []*core.GFD, f *core.GFD) bool {
	s := f.String()[len(f.Name):]
	for _, r := range rules {
		if r.String()[len(r.Name):] == s {
			return true
		}
	}
	return false
}

// cyclicGraph is a window-clustered graph: seven node classes of n nodes
// with seven directed edge kinds between A..D, each node's out-adjacency
// for a kind being a contiguous window of targets starting at a per-kind
// stride multiple of the source index. Distinct strides decorrelate the
// windows, so the two ranges a closing node intersects overlap in about
// len₁·len₂/n candidates. The triangle-core kinds (ab, bc) have windows of
// coreDeg, the kinds only the diamond and the 4-cycle use have windows of
// sideDeg. Tail classes T1..T3 hang one edge off every C node, a sparse acs
// edge closes the shared triangle core, and every node's val attribute is
// one of seven values so literals both hold and fail. The topology depends
// on the scale alone, the values of every class but A on the seed; A's
// values follow the node index (see cyclicRules for why).
func cyclicGraph(scale int, seed int64) *graph.Graph {
	n := max(scale*10, 200)
	const coreDeg, sideDeg = 32, 8
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(7*n, n*(2*coreDeg+5*sideDeg+4))
	classes := []string{"A", "B", "C", "D", "T1", "T2", "T3"}
	ids := make(map[string][]graph.NodeID, len(classes))
	for _, cl := range classes {
		nodes := make([]graph.NodeID, n)
		for i := range nodes {
			v := rng.Intn(7)
			if cl == "A" {
				v = i % 7
			}
			nodes[i] = g.AddNode(cl, graph.Attrs{"val": fmt.Sprintf("v%d", v)})
		}
		ids[cl] = nodes
	}
	window := func(from, to, label string, stride, deg int) {
		src, dst := ids[from], ids[to]
		for i, u := range src {
			start := (i * stride) % n
			for k := 0; k < deg; k++ {
				g.MustAddEdge(u, dst[(start+k)%n], label)
			}
		}
	}
	window("A", "B", "ab", 7, coreDeg)
	window("B", "C", "bc", 19, coreDeg)
	window("A", "C", "ac", 13, sideDeg)
	window("B", "D", "bd", 23, sideDeg)
	window("C", "D", "cd", 29, sideDeg)
	window("A", "D", "ad", 31, sideDeg)
	window("D", "C", "dc", 37, sideDeg)
	for i, u := range ids["C"] {
		g.MustAddEdge(u, ids["T1"][i], "t1")
		g.MustAddEdge(u, ids["T2"][(i*3)%n], "t2")
		g.MustAddEdge(u, ids["T3"][(i*5)%n], "t3")
	}
	for i, u := range ids["A"] {
		g.MustAddEdge(u, ids["C"][(i*11)%n], "acs")
	}
	return g
}

// cyclicRules is the shared-core triangle group (three triangle rules with
// one tail each plus the bare triangle, all closing on the sparse acs
// edge, so the factorized sequential engine walks the core once) and one
// diamond and one 4-cycle rule whose closing node the matcher finds by
// multiway intersection. The triangle rules compare A's value with a
// seed-drawn one, so whether each match violates changes with the seed.
// The diamond and 4-cycle rules select the matches whose A node holds v0
// (one in seven, the same matches for every seed) and require a value no
// node holds, so each selected match is a violation: the op's violation
// set stays in the low ten thousands, and its first violation comes at the
// same point of the schedule whatever the seed.
func cyclicRules() *core.Set {
	tri := func() *pattern.Pattern {
		q := pattern.New()
		a := q.AddNode("a", "A")
		b := q.AddNode("b", "B")
		c := q.AddNode("c", "C")
		q.AddEdge(a, b, "ab")
		q.AddEdge(b, c, "bc")
		q.AddEdge(a, c, "acs")
		return q
	}
	tail := func(name, cls, label string) *core.GFD {
		q := tri()
		t := q.AddNode("t", cls)
		q.AddEdge(2, t, label)
		return core.MustNew(name, q, nil, []core.Literal{core.VarEq("a", "val", "t", "val")})
	}
	four := func(e1, e2, e3, e4 [3]string) *pattern.Pattern {
		q := pattern.New()
		idx := map[string]int{}
		for _, v := range []struct{ v, l string }{{"a", "A"}, {"b", "B"}, {"c", "C"}, {"d", "D"}} {
			idx[v.v] = q.AddNode(pattern.Var(v.v), v.l)
		}
		for _, e := range [][3]string{e1, e2, e3, e4} {
			q.AddEdge(idx[e[0]], idx[e[1]], e[2])
		}
		return q
	}
	diamond := four([3]string{"a", "b", "ab"}, [3]string{"a", "c", "ac"}, [3]string{"b", "d", "bd"}, [3]string{"c", "d", "cd"})
	cycle4 := four([3]string{"a", "b", "ab"}, [3]string{"b", "c", "bc"}, [3]string{"a", "d", "ad"}, [3]string{"d", "c", "dc"})
	sel := []core.Literal{core.Const("a", "val", "v0")}
	never := []core.Literal{core.Const("d", "val", "v7")} // outside the v0..v6 alphabet
	return core.MustNewSet(
		tail("tri_t1", "T1", "t1"),
		tail("tri_t2", "T2", "t2"),
		tail("tri_t3", "T3", "t3"),
		core.MustNew("tri", tri(), nil, []core.Literal{core.VarEq("a", "val", "b", "val")}),
		core.MustNew("diamond", diamond, sel, never),
		core.MustNew("cycle4", cycle4, sel, never),
	)
}

// updateStream draws rounds×batch mixed updates over the first n nodes of
// g: node insertions, edge insertions between existing nodes (with a label
// the rules use, so inserted edges create new matches) and attribute
// assignments to values the rules constrain. Every edge endpoint exists
// before the stream starts, so each batch is valid whatever came before.
func updateStream(g *graph.Graph, rounds, batch int, seed int64) [][]incremental.Update {
	rng := rand.New(rand.NewSource(seed + 7))
	n := g.NumNodes()
	labels := g.Labels()
	var edgeLabels []string
	seen := map[string]bool{}
	g.Edges(func(e graph.Edge) bool {
		if !seen[e.Label] {
			seen[e.Label] = true
			edgeLabels = append(edgeLabels, e.Label)
		}
		return true
	})
	sort.Strings(edgeLabels)
	out := make([][]incremental.Update, rounds)
	for b := range out {
		ups := make([]incremental.Update, 0, batch)
		for i := 0; i < batch; i++ {
			switch rng.Intn(3) {
			case 0:
				ups = append(ups, incremental.AddNode{
					Label: labels[rng.Intn(len(labels))],
					Attrs: graph.Attrs{"val": fmt.Sprintf("u%d_%d", b, i)},
				})
			case 1:
				from := graph.NodeID(rng.Intn(n))
				to := graph.NodeID(rng.Intn(n))
				if from == to {
					to = (to + 1) % graph.NodeID(n)
				}
				ups = append(ups, incremental.AddEdge{From: from, To: to, Label: edgeLabels[rng.Intn(len(edgeLabels))]})
			default:
				v := graph.NodeID(rng.Intn(n))
				val, ok := g.Attr(graph.NodeID(rng.Intn(n)), "val")
				if !ok || val == "" || strings.ContainsAny(val, " \t") {
					val = fmt.Sprintf("w%d_%d", b, i)
				}
				ups = append(ups, incremental.SetAttr{Node: v, Attr: "val", Value: val})
			}
		}
		out[b] = ups
	}
	return out
}

// referenceKeys loads a fresh copy of the inputs and runs EngineSequential
// over it: the oracle every measured op is compared against.
func referenceKeys(ctx context.Context, w workloadSpec, dir string) ([]string, error) {
	set, err := readRules(filepath.Join(dir, rulesFile))
	if err != nil {
		return nil, err
	}
	var sess *gfd.Session
	if w.kind == kindDist {
		s, l, err := gfd.OpenSnapshot(ctx, filepath.Join(dir, snapshotFile))
		if err != nil {
			return nil, err
		}
		defer l.Close()
		sess = s
	} else {
		g, err := readGraph(filepath.Join(dir, graphFile))
		if err != nil {
			return nil, err
		}
		if sess, err = gfd.NewSession(g); err != nil {
			return nil, err
		}
	}
	prep, err := sess.Prepare(set)
	if err != nil {
		return nil, err
	}
	res, err := prep.Detect(ctx, gfd.Options{Engine: gfd.EngineSequential})
	if err != nil {
		return nil, err
	}
	return res.Violations.Keys(), nil
}

func writeGraph(path string, g *graph.Graph) error {
	return writeFile(path, func(w io.Writer) error { return gfd.WriteGraph(w, g) })
}

func writeRules(path string, set *core.Set) error {
	return writeFile(path, func(w io.Writer) error { return gfd.WriteRules(w, set) })
}

func writeLines(path string, lines []string) error {
	return writeFile(path, func(w io.Writer) error {
		for _, l := range lines {
			if _, err := io.WriteString(w, l+"\n"); err != nil {
				return err
			}
		}
		return nil
	})
}

// writeUpdates serializes the update stream one update per line, batches
// separated by a line holding "batch":
//
//	node <label> <val>
//	edge <from> <to> <label>
//	attr <node> <attr> <value>
func writeUpdates(path string, batches [][]incremental.Update) error {
	return writeFile(path, func(w io.Writer) error {
		for _, ups := range batches {
			fmt.Fprintln(w, "batch")
			for _, up := range ups {
				switch u := up.(type) {
				case incremental.AddNode:
					fmt.Fprintf(w, "node %s %s\n", u.Label, u.Attrs["val"])
				case incremental.AddEdge:
					fmt.Fprintf(w, "edge %d %d %s\n", u.From, u.To, u.Label)
				case incremental.SetAttr:
					fmt.Fprintf(w, "attr %d %s %s\n", u.Node, u.Attr, u.Value)
				}
			}
		}
		return nil
	})
}

func writeFile(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := fill(bw); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// writeDigests records the sha256 of every input file, so runs of one
// seed can be checked to have measured identical inputs.
func writeDigests(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var lines []string
	for _, e := range entries {
		if e.IsDir() || e.Name() == digestFile {
			continue
		}
		sum, err := fileDigest(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		lines = append(lines, e.Name()+" "+sum)
	}
	return writeLines(filepath.Join(dir, digestFile), lines)
}

func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

func readGraph(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, _, err := gfd.ReadGraph(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return g, nil
}

func readRules(path string) (*core.Set, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set, err := gfd.ParseRules(f)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return set, nil
}

func readLines(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := strings.TrimSuffix(string(data), "\n")
	if s == "" {
		return nil, nil
	}
	return strings.Split(s, "\n"), nil
}

func readUpdates(path string) ([][]incremental.Update, error) {
	lines, err := readLines(path)
	if err != nil {
		return nil, err
	}
	var out [][]incremental.Update
	for i, l := range lines {
		f := strings.Fields(l)
		bad := func() error { return fmt.Errorf("%s:%d: malformed update %q", path, i+1, l) }
		id := func(s string) (graph.NodeID, error) {
			v, err := strconv.Atoi(s)
			return graph.NodeID(v), err
		}
		switch {
		case len(f) == 1 && f[0] == "batch":
			out = append(out, nil)
		case len(out) == 0:
			return nil, bad()
		case len(f) == 3 && f[0] == "node":
			out[len(out)-1] = append(out[len(out)-1], incremental.AddNode{Label: f[1], Attrs: graph.Attrs{"val": f[2]}})
		case len(f) == 4 && f[0] == "edge":
			from, err1 := id(f[1])
			to, err2 := id(f[2])
			if err1 != nil || err2 != nil {
				return nil, bad()
			}
			out[len(out)-1] = append(out[len(out)-1], incremental.AddEdge{From: from, To: to, Label: f[3]})
		case len(f) == 4 && f[0] == "attr":
			v, err := id(f[1])
			if err != nil {
				return nil, bad()
			}
			out[len(out)-1] = append(out[len(out)-1], incremental.SetAttr{Node: v, Attr: f[2], Value: f[3]})
		default:
			return nil, bad()
		}
	}
	return out, nil
}

// nproc is the core count every run is sized for: the engine's N and the
// dist worker-process count, with the client as the one load-generating
// process.
func nproc() int { return runtime.NumCPU() }
