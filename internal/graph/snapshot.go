package graph

import (
	"runtime"
	"sort"
	"sync"
)

// CSREdge is one adjacency entry of a Snapshot: the other endpoint and the
// interned edge label. Within a node's range entries are sorted by
// (Label, To), so label-filtered neighbor sets are contiguous subranges and
// edge-existence tests are binary searches.
type CSREdge struct {
	To    NodeID
	Label Sym
}

// AttrPair is one interned attribute of a node's tuple: attribute name and
// value as symbol codes. Within a node's range pairs are sorted by Name,
// so attribute lookup is a binary search over int32 pairs and literal
// evaluation (core.LiteralProgram) is pure integer comparison.
type AttrPair struct {
	Name Sym
	Val  Sym
}

// Snapshot is a compiled, immutable CSR (compressed sparse row) view of a
// Graph: flat adjacency arrays with per-node offsets, interned labels, and
// contiguous per-label candidate ranges. It is the execution representation
// the match engine and the validation engines run against.
//
// Lifecycle: build/mutate a *Graph, call Freeze, then match against the
// Snapshot. A Snapshot is safe for concurrent readers (all engines share
// one across workers). It reflects the graph at freeze time; mutating the
// source graph afterwards invalidates it — call Freeze again to get a fresh
// view (Freeze is cached and only rebuilds after a mutation). Attribute
// tuples are copied into an interned arena at freeze time, so later
// mutations of the source graph's maps never leak into a frozen view.
type Snapshot struct {
	g    *Graph
	syms *Symbols

	labels []Sym // node label codes, indexed by NodeID

	attrOff   []int32 // len NumNodes+1; attrPairs[attrOff[v]:attrOff[v+1]] is v's tuple
	attrPairs []AttrPair

	outOff []int32 // len NumNodes+1; out[outOff[v]:outOff[v+1]] is v's out-adjacency
	out    []CSREdge
	inOff  []int32
	in     []CSREdge

	classOff []int32  // per Sym: offsets into classNodes (node-label classes)
	classes  []NodeID // nodes grouped by label code, ascending IDs within a class

	stripeMu sync.RWMutex               // guards stripes
	stripes  map[stripeKey]*stripeIndex // residue regroupings, per (label, mod)

	scratch sync.Pool // *bfsScratch, reused across Neighborhood traversals
}

// Freeze returns the CSR snapshot of g, building it on first use and
// whenever the graph has been mutated since the last call; otherwise the
// cached snapshot is returned. O(|V| + |E| log d) to build (sharded across
// GOMAXPROCS goroutines for large graphs, serial under GOMAXPROCS==1 or
// below the size floor), O(1) when cached. Concurrent Freeze calls on an
// unmutated graph are safe and share one snapshot: the first caller builds
// while later callers wait on the build, not on the cache mutex, so a long
// freeze never blocks unrelated lock holders (SnapshotBuilds, a racing
// version check). Freeze concurrent with mutation is not safe, just as
// matching during mutation never was. The returned Snapshot itself is safe
// to share across goroutines.
func (g *Graph) Freeze() *Snapshot {
	g.snapMu.Lock()
	for {
		v := g.version
		if g.snap != nil && g.snapVersion == v {
			s := g.snap
			g.snapMu.Unlock()
			return s
		}
		b := g.snapBuilding
		if b == nil || b.version != v {
			break
		}
		// Another caller is building this version: wait outside the lock
		// and re-check (the build-once guard — exactly one construction
		// per version no matter how many concurrent callers).
		g.snapMu.Unlock()
		<-b.done
		g.snapMu.Lock()
	}
	b := &snapBuild{version: g.version, done: make(chan struct{})}
	g.snapBuilding = b
	g.snapMu.Unlock()

	// The O(|V|+|E|) construction runs outside the mutex. Publish and
	// cleanup run deferred so a panicking build (mutation racing the
	// freeze) still clears the in-flight marker and releases waiters —
	// they re-check the cache and retry instead of blocking forever.
	var s *Snapshot
	defer func() {
		g.snapMu.Lock()
		if s != nil {
			g.snap, g.snapVersion = s, b.version
			g.snapBuilds++
		}
		if g.snapBuilding == b {
			g.snapBuilding = nil
		}
		g.snapMu.Unlock()
		close(b.done)
	}()
	s = buildSnapshotAuto(g, runtime.GOMAXPROCS(0))
	return s
}

func buildSnapshot(g *Graph) *Snapshot {
	n := g.NumNodes()
	s := &Snapshot{
		g:      g,
		syms:   NewSymbols(),
		labels: make([]Sym, n),
		outOff: make([]int32, n+1),
		inOff:  make([]int32, n+1),
		out:    make([]CSREdge, 0, g.edges),
		in:     make([]CSREdge, 0, g.edges),
	}
	// Intern node labels in NodeID order so codes are deterministic.
	for v := 0; v < n; v++ {
		s.labels[v] = s.syms.Intern(g.labels[v])
	}
	// Flatten adjacency; edge labels interned in (source, position) order.
	for v := 0; v < n; v++ {
		s.outOff[v] = int32(len(s.out))
		for _, he := range g.out[v] {
			s.out = append(s.out, CSREdge{To: he.To, Label: s.syms.Intern(he.Label)})
		}
	}
	s.outOff[n] = int32(len(s.out))
	for v := 0; v < n; v++ {
		s.inOff[v] = int32(len(s.in))
		for _, he := range g.in[v] {
			s.in = append(s.in, CSREdge{To: he.To, Label: s.syms.Intern(he.Label)})
		}
	}
	s.inOff[n] = int32(len(s.in))
	// Intern attribute names and values and flatten every node's tuple
	// into one contiguous (Name, Val) arena. Names are interned from one
	// sorted pass over the distinct set so their codes are deterministic;
	// values are interned in (node, sorted attribute name) order. Copying
	// the tuples here (instead of sharing the graph's maps by reference)
	// is what lets literal evaluation run without string hashing — and it
	// means a frozen view can never observe a later map mutation.
	distinct := make(map[string]struct{}, 8)
	total := 0
	for _, a := range g.attrs {
		total += len(a)
		for k := range a {
			distinct[k] = struct{}{}
		}
	}
	attrNames := make([]string, 0, len(distinct))
	for k := range distinct {
		attrNames = append(attrNames, k)
	}
	sort.Strings(attrNames)
	for _, k := range attrNames {
		s.syms.Intern(k)
	}
	s.attrOff = make([]int32, n+1)
	s.attrPairs = make([]AttrPair, 0, total)
	var keyScratch []string
	for v := 0; v < n; v++ {
		s.attrOff[v] = int32(len(s.attrPairs))
		a := g.attrs[v]
		if len(a) == 0 {
			continue
		}
		keyScratch = keyScratch[:0]
		for k := range a {
			keyScratch = append(keyScratch, k)
		}
		sort.Strings(keyScratch)
		for _, k := range keyScratch {
			s.attrPairs = append(s.attrPairs, AttrPair{Name: s.syms.Lookup(k), Val: s.syms.Intern(a[k])})
		}
		// The shared namespace can assign an attribute name a code out of
		// lexicographic order (when it collides with an earlier-interned
		// label), so re-sort the tuple by Name code for binary search.
		sortAttrPairs(s.attrPairs[s.attrOff[v]:])
	}
	s.attrOff[n] = int32(len(s.attrPairs))
	// Sort each node's adjacency by (Label, To): label-filtered neighbor
	// iteration becomes a contiguous subrange, HasEdge a binary search.
	for v := 0; v < n; v++ {
		sortCSR(s.out[s.outOff[v]:s.outOff[v+1]])
		sortCSR(s.in[s.inOff[v]:s.inOff[v+1]])
	}
	// Label classes: counting sort of nodes by label code. Iterating nodes
	// in ID order keeps every class ascending, preserving the deterministic
	// candidate order of the mutable graph's label index.
	s.classOff = make([]int32, s.syms.Len()+1)
	for _, l := range s.labels {
		s.classOff[l+1]++
	}
	for i := 1; i < len(s.classOff); i++ {
		s.classOff[i] += s.classOff[i-1]
	}
	s.classes = make([]NodeID, n)
	fill := append([]int32(nil), s.classOff[:len(s.classOff)-1]...)
	for v := 0; v < n; v++ {
		l := s.labels[v]
		s.classes[fill[l]] = NodeID(v)
		fill[l]++
	}
	return s
}

func sortCSR(es []CSREdge) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].Label != es[j].Label {
			return es[i].Label < es[j].Label
		}
		return es[i].To < es[j].To
	})
}

// sortAttrPairs orders a node's tuple by Name code. Tuples are tiny, so an
// insertion sort beats sort.Slice's closure machinery during freeze.
func sortAttrPairs(ps []AttrPair) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].Name < ps[j-1].Name; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

// Syms returns the snapshot's symbol table; patterns are compiled against
// it (pattern.Compile).
func (s *Snapshot) Syms() *Symbols { return s.syms }

// Graph returns the source graph.
func (s *Snapshot) Graph() *Graph { return s.g }

// NumNodes returns |V| at freeze time.
func (s *Snapshot) NumNodes() int { return len(s.labels) }

// NumEdges returns |E| at freeze time.
func (s *Snapshot) NumEdges() int { return len(s.out) }

// Label returns the interned label code of node v.
func (s *Snapshot) Label(v NodeID) Sym { return s.labels[v] }

// LabelName returns the string label of node v.
func (s *Snapshot) LabelName(v NodeID) string { return s.syms.Name(s.labels[v]) }

// Attr returns the value of attribute a on node v at freeze time, read
// from the interned arena (string-keyed convenience; hot paths use
// AttrSym).
func (s *Snapshot) Attr(v NodeID, a string) (string, bool) {
	val, ok := s.AttrSym(v, s.syms.Lookup(a))
	if !ok {
		return "", false
	}
	return s.syms.Name(val), true
}

// AttrSym returns the interned value of attribute name on node v, or
// (NoSym, false) when the node does not carry it. Lookup is a binary
// search over the node's (Name, Val) pairs — no string hashing, no map.
// name == NoSym (an attribute the frozen graph never mentions) matches
// nothing.
func (s *Snapshot) AttrSym(v NodeID, name Sym) (Sym, bool) {
	return lookupAttr(s.attrPairs[s.attrOff[v]:s.attrOff[v+1]], name)
}

// lookupAttr is the lower-bound binary search over a name-sorted tuple
// shared by Snapshot.AttrSym and AttrIndex.AttrSym.
func lookupAttr(ps []AttrPair, name Sym) (Sym, bool) {
	lo, hi := 0, len(ps)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ps[mid].Name < name {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ps) && ps[lo].Name == name {
		return ps[lo].Val, true
	}
	return NoSym, false
}

// AttrPairs returns v's attribute tuple as interned pairs sorted by Name.
// Shared; read-only.
func (s *Snapshot) AttrPairs(v NodeID) []AttrPair {
	return s.attrPairs[s.attrOff[v]:s.attrOff[v+1]]
}

// Out returns v's out-adjacency range, sorted by (Label, To). Shared;
// read-only.
func (s *Snapshot) Out(v NodeID) []CSREdge { return s.out[s.outOff[v]:s.outOff[v+1]] }

// In returns v's in-adjacency range (CSREdge.To is the edge source),
// sorted by (Label, To). Shared; read-only.
func (s *Snapshot) In(v NodeID) []CSREdge { return s.in[s.inOff[v]:s.inOff[v+1]] }

// OutDegree returns the number of out-edges of v.
func (s *Snapshot) OutDegree(v NodeID) int { return int(s.outOff[v+1] - s.outOff[v]) }

// InDegree returns the number of in-edges of v.
func (s *Snapshot) InDegree(v NodeID) int { return int(s.inOff[v+1] - s.inOff[v]) }

// OutWith returns the contiguous subrange of v's out-adjacency carrying
// edge label l; the whole range for WildcardSym. O(log d).
func (s *Snapshot) OutWith(v NodeID, l Sym) []CSREdge {
	return labelRange(s.Out(v), l)
}

// InWith is OutWith over the in-adjacency.
func (s *Snapshot) InWith(v NodeID, l Sym) []CSREdge {
	return labelRange(s.In(v), l)
}

func labelRange(es []CSREdge, l Sym) []CSREdge {
	if l == WildcardSym {
		return es
	}
	lo := sort.Search(len(es), func(i int) bool { return es[i].Label >= l })
	hi := lo
	for hi < len(es) && es[hi].Label == l {
		hi++
	}
	return es[lo:hi]
}

// HasEdge reports whether a from -[l]-> to edge exists; l == WildcardSym
// matches any label. Binary search for a concrete label; a linear scan of
// the smaller endpoint range for the wildcard (label groups make the
// neighbor column non-monotonic across the whole range). The body repeats
// hasEdgeRanges rather than calling it: this sits in the matcher's
// per-candidate loop, and the extra call level was a measured regression.
func (s *Snapshot) HasEdge(from, to NodeID, l Sym) bool {
	if l == WildcardSym {
		out := s.Out(from)
		if in := s.In(to); len(in) < len(out) {
			for i := range in {
				if in[i].To == from {
					return true
				}
			}
			return false
		}
		for i := range out {
			if out[i].To == to {
				return true
			}
		}
		return false
	}
	es := s.Out(from)
	i := sort.Search(len(es), func(i int) bool {
		if es[i].Label != l {
			return es[i].Label > l
		}
		return es[i].To >= to
	})
	return i < len(es) && es[i].Label == l && es[i].To == to
}

// hasEdgeRanges is the edge-existence test over a node pair's sorted
// adjacency ranges; the Overlay's HasEdge runs on it (its adjacency
// slices come from patches or the base arena).
func hasEdgeRanges(out, in []CSREdge, from, to NodeID, l Sym) bool {
	if l == WildcardSym {
		if len(in) < len(out) {
			for i := range in {
				if in[i].To == from {
					return true
				}
			}
			return false
		}
		for i := range out {
			if out[i].To == to {
				return true
			}
		}
		return false
	}
	i := sort.Search(len(out), func(i int) bool {
		if out[i].Label != l {
			return out[i].Label > l
		}
		return out[i].To >= to
	})
	return i < len(out) && out[i].Label == l && out[i].To == to
}

// NodesWith returns the candidate class of label code l: all nodes carrying
// it, ascending. The contiguous range replaces the mutable graph's
// map[string][]NodeID lookup. Shared; read-only.
func (s *Snapshot) NodesWith(l Sym) []NodeID {
	if l < 0 || int(l) >= len(s.classOff)-1 {
		return nil
	}
	return s.classes[s.classOff[l]:s.classOff[l+1]]
}

// NodesWithLabel is NodesWith by label string.
func (s *Snapshot) NodesWithLabel(label string) []NodeID {
	return s.NodesWith(s.syms.Lookup(label))
}

// ClassSize returns the number of nodes carrying label code l.
func (s *Snapshot) ClassSize(l Sym) int {
	if l < 0 || int(l) >= len(s.classOff)-1 {
		return 0
	}
	return int(s.classOff[l+1] - s.classOff[l])
}

// stripeKey identifies one cached residue regrouping of a label class.
type stripeKey struct {
	l   Sym
	mod int
}

// stripeIndex is a label class regrouped by node-ID residue: nodes holds
// the class permuted so each residue's members are contiguous (ascending
// within a residue), off[r]..off[r+1] delimiting residue r.
type stripeIndex struct {
	off   []int32
	nodes []NodeID
}

// NodesWithStripe returns the candidates of label class l whose ID is
// congruent to rem modulo mod — the exact residue sub-range the
// replicate-and-split stripes enumerate, replacing the per-candidate
// `v mod m == r` filter. The regrouping is computed once per (label, mod)
// pair and cached; steady-state calls are a lock-shared map hit returning
// a subslice. Safe for concurrent use.
func (s *Snapshot) NodesWithStripe(l Sym, mod, rem int) []NodeID {
	if mod <= 1 {
		return s.NodesWith(l)
	}
	if rem < 0 || rem >= mod {
		return nil
	}
	key := stripeKey{l, mod}
	s.stripeMu.RLock()
	ix, ok := s.stripes[key]
	s.stripeMu.RUnlock()
	if !ok {
		ix = buildStripeIndex(s.NodesWith(l), mod)
		s.stripeMu.Lock()
		if prev, dup := s.stripes[key]; dup {
			ix = prev // a racing builder won; share its index
		} else {
			if s.stripes == nil {
				s.stripes = make(map[stripeKey]*stripeIndex)
			}
			s.stripes[key] = ix
		}
		s.stripeMu.Unlock()
	}
	return ix.nodes[ix.off[rem]:ix.off[rem+1]]
}

// buildStripeIndex counting-sorts a class by ID residue.
func buildStripeIndex(class []NodeID, mod int) *stripeIndex {
	ix := &stripeIndex{
		off:   make([]int32, mod+1),
		nodes: make([]NodeID, len(class)),
	}
	for _, v := range class {
		ix.off[int(v)%mod+1]++
	}
	for r := 1; r <= mod; r++ {
		ix.off[r] += ix.off[r-1]
	}
	fill := append([]int32(nil), ix.off[:mod]...)
	for _, v := range class {
		r := int(v) % mod
		ix.nodes[fill[r]] = v
		fill[r]++
	}
	return ix
}

// bfsScratch is reusable traversal state: an epoch-stamped visited array
// (one clear per 2³²−1 traversals instead of an O(|V|) allocation per
// call — workload estimation runs one traversal per pivot candidate) plus
// the frontier and discovery buffers. Pooled on the Snapshot so concurrent
// workers each grab their own.
type bfsScratch struct {
	stamp    []uint32
	epoch    uint32
	frontier []NodeID
	next     []NodeID
	nodes    []NodeID
}

func (sc *bfsScratch) visited(v NodeID) bool { return sc.stamp[v] == sc.epoch }
func (sc *bfsScratch) visit(v NodeID)        { sc.stamp[v] = sc.epoch }

func (s *Snapshot) getScratch() *bfsScratch {
	sc, _ := s.scratch.Get().(*bfsScratch)
	if sc == nil {
		sc = &bfsScratch{stamp: make([]uint32, s.NumNodes())}
	}
	sc.epoch++
	if sc.epoch == 0 { // wrapped: stale stamps could collide, clear them
		clear(sc.stamp)
		sc.epoch = 1
	}
	return sc
}

// bfs collects the nodes within c undirected hops of start (in discovery
// order, start first) into the returned scratch, whose stamp array is the
// visited mask. The caller must Put the scratch back into s.scratch when
// done. Returns nil for an out-of-range start.
func (s *Snapshot) bfs(start NodeID, c int) *bfsScratch {
	if int(start) < 0 || int(start) >= s.NumNodes() {
		return nil
	}
	sc := s.getScratch()
	sc.visit(start)
	frontier := append(sc.frontier[:0], start)
	next := sc.next[:0]
	nodes := append(sc.nodes[:0], start)
	for hop := 0; hop < c && len(frontier) > 0; hop++ {
		next = next[:0]
		for _, v := range frontier {
			for _, e := range s.Out(v) {
				if !sc.visited(e.To) {
					sc.visit(e.To)
					next = append(next, e.To)
					nodes = append(nodes, e.To)
				}
			}
			for _, e := range s.In(v) {
				if !sc.visited(e.To) {
					sc.visit(e.To)
					next = append(next, e.To)
					nodes = append(nodes, e.To)
				}
			}
		}
		frontier, next = next, frontier
	}
	sc.frontier, sc.next, sc.nodes = frontier, next, nodes
	return sc
}

// Neighborhood returns the nodes within c undirected hops of start,
// including start, sorted ascending — Graph.Neighborhood over the CSR view.
func (s *Snapshot) Neighborhood(start NodeID, c int) []NodeID {
	sc := s.bfs(start, c)
	if sc == nil {
		return nil
	}
	out := append([]NodeID(nil), sc.nodes...)
	s.scratch.Put(sc)
	sortNodeIDs(out)
	return out
}

// NeighborhoodSize returns |V'| + |E'| of the subgraph induced by the c-hop
// neighborhood of start — the |G_z̄| block-size measure — without
// materializing the subgraph.
func (s *Snapshot) NeighborhoodSize(start NodeID, c int) int {
	sc := s.bfs(start, c)
	if sc == nil {
		return 0
	}
	size := len(sc.nodes)
	for _, v := range sc.nodes {
		for _, e := range s.Out(v) {
			if sc.visited(e.To) {
				size++
			}
		}
	}
	s.scratch.Put(sc)
	return size
}
