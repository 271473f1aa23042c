package graph

import (
	"sort"
	"sync"
)

// Overlay is the mutable counterpart of a Snapshot: a base CSR view plus
// localized patches that track a stream of AddNode / AddEdge / SetAttr
// updates, so the compiled match path keeps working over a changing graph
// without an O(|V|+|E|) re-freeze per update batch. It implements the same
// Topology contract the engines run against.
//
// Representation: adjacency of a touched node is copied out of the base
// CSR on first touch and maintained (label, neighbor)-sorted in place, so
// OutWith/InWith subranges and HasEdge binary searches work exactly as on
// a Snapshot; untouched nodes read straight from the base arrays. Nodes
// inserted after the freeze get label and class-range fixups (per-label
// candidate classes grown incrementally, kept ascending because new IDs
// are always larger than frozen ones). Attributes ride on an AttrIndex
// that borrows the base snapshot's interned arena copy-on-write.
//
// The overlay interns new labels and attribute values into the base
// snapshot's own symbol table. Codes only ever grow, so artifacts compiled
// against the table stay valid — with the usual growing-table caveat:
// names a pattern or rule mentions must be interned before compiling
// (pattern.InternInto, GFD.InternLiterals), or an absent name would be
// frozen as "matches nothing". Mutating an overlay concurrently with any
// matching against views sharing the table is not safe; between update
// batches the overlay is safe for concurrent readers, like a Snapshot.
//
// An Overlay is meant to stay small relative to its base: patch cost grows
// with the touched region, and holders compact (re-freeze and start a
// fresh overlay) once DeltaFraction crosses their threshold.
type Overlay struct {
	g    *Graph
	base *Snapshot
	syms *Symbols

	version uint64 // graph version the patches reflect

	outPatch  map[NodeID][]CSREdge // copy-on-write adjacency, (Label, To)-sorted
	inPatch   map[NodeID][]CSREdge
	newLabels []Sym            // labels of nodes inserted after the freeze
	classes   map[Sym][]NodeID // merged candidate classes for labels that gained nodes
	attrs     *AttrIndex       // attribute tuples, borrowing the base arena

	delta int // patch size: nodes + edges + attribute writes since the freeze

	// touchLog records every node whose *topology* changed since the base
	// freeze (inserted nodes, endpoints of inserted edges) in update order.
	// Holders of derived per-node measurements (the engines' cached c-hop
	// block sizes) remember a log position and invalidate only what lies
	// within radius of the nodes appended since — the delta-proportional
	// alternative to discarding every measurement per update batch.
	// Attribute writes are deliberately absent: they change no neighborhood.
	touchLog []NodeID
	// attrLog records the node of every SetAttr in update order — the
	// delta holders of value-ordered per-node state (the engines' sorted
	// pivot candidate lists) re-place. Values given at AddNode are not
	// logged: the node itself is new.
	attrLog []NodeID

	scratch sync.Pool // *bfsScratch
}

// NewOverlay freezes g (cached per version, so stacking an overlay on an
// already-frozen graph builds nothing) and returns an empty overlay over
// the snapshot. All further mutations must flow through the overlay's
// AddNode/AddEdge/SetAttr so the patches stay in lockstep with the graph;
// a direct graph mutation desynchronizes it (see Synced).
func NewOverlay(g *Graph) *Overlay {
	base := g.Freeze()
	return &Overlay{
		g:        g,
		base:     base,
		syms:     base.Syms(),
		version:  g.Version(),
		outPatch: make(map[NodeID][]CSREdge),
		inPatch:  make(map[NodeID][]CSREdge),
		classes:  make(map[Sym][]NodeID),
		attrs:    newAttrIndexOver(base),
	}
}

// Graph returns the underlying mutable graph.
func (o *Overlay) Graph() *Graph { return o.g }

// Base returns the frozen snapshot the overlay patches.
func (o *Overlay) Base() *Snapshot { return o.base }

// Version returns the graph version the overlay's patches reflect. It
// advances with every mutation applied through the overlay, so holders of
// topology-derived caches (the matcher's plan cache) can key on it.
func (o *Overlay) Version() uint64 { return o.version }

// Synced reports whether the overlay reflects the graph's current version
// — true as long as every mutation since NewOverlay went through the
// overlay. Holders of a desynchronized overlay must discard it and
// re-freeze.
func (o *Overlay) Synced() bool { return o.version == o.g.Version() }

// Delta returns the patch size: nodes inserted + edges inserted +
// attribute writes since the base freeze.
func (o *Overlay) Delta() int { return o.delta }

// DeltaFraction returns Delta relative to the base size |V|+|E| — the
// compaction trigger: past a threshold fraction, re-freezing once is
// cheaper than dragging a large patch set through every lookup.
func (o *Overlay) DeltaFraction() float64 {
	base := o.base.NumNodes() + o.base.NumEdges()
	if base < 1 {
		base = 1
	}
	return float64(o.delta) / float64(base)
}

// CompactFraction is the DeltaFraction past which holders should compact
// (drop the overlay and re-freeze once). One shared constant: the session
// and the incremental detector maintain the same overlay, so diverging
// thresholds would make the lifecycle depend on which Apply a batch took.
// Past a quarter of the base, one amortized freeze beats the patches.
const CompactFraction = 0.25

// NeedsCompaction reports whether the accumulated delta has outgrown the
// base by CompactFraction.
func (o *Overlay) NeedsCompaction() bool { return o.DeltaFraction() > CompactFraction }

// TouchLen returns the current length of the topology touch log; callers
// caching per-node measurements record it as their mark.
func (o *Overlay) TouchLen() int { return len(o.touchLog) }

// TouchedSince returns the nodes whose adjacency changed since the given
// log mark (inserted nodes and endpoints of inserted edges, in update
// order, possibly with repeats). Shared slice; read-only.
func (o *Overlay) TouchedSince(mark int) []NodeID {
	if mark < 0 {
		mark = 0
	}
	if mark >= len(o.touchLog) {
		return nil
	}
	return o.touchLog[mark:]
}

// AttrTouchLen returns the current length of the attribute touch log.
func (o *Overlay) AttrTouchLen() int { return len(o.attrLog) }

// AttrTouchedSince returns the nodes whose attributes were written since
// the given attribute-log mark, in update order, possibly with repeats.
// Shared slice; read-only.
func (o *Overlay) AttrTouchedSince(mark int) []NodeID {
	if mark >= len(o.attrLog) {
		return nil
	}
	return o.attrLog[max(mark, 0):]
}

// AddNode inserts a node into the underlying graph and patches the
// overlay: label interned, candidate class extended, attribute tuple
// indexed. Returns the new node's ID.
func (o *Overlay) AddNode(label string, attrs Attrs) NodeID {
	id := o.g.AddNode(label, attrs)
	o.attrs.AddNode(attrs)
	l := o.syms.Intern(label)
	o.newLabels = append(o.newLabels, l)
	// Extend the merged candidate class; seeded from the base range on the
	// label's first insertion. New IDs exceed every frozen ID, so the class
	// stays ascending by construction.
	m, ok := o.classes[l]
	if !ok {
		m = append([]NodeID(nil), o.base.NodesWith(l)...)
	}
	o.classes[l] = append(m, id)
	o.touchLog = append(o.touchLog, id)
	o.delta += 1 + len(attrs)
	o.version = o.g.Version()
	return id
}

// AddEdge inserts a directed labeled edge into the underlying graph and
// patches both endpoints' adjacency (copy-on-write on first touch).
func (o *Overlay) AddEdge(from, to NodeID, label string) error {
	if err := o.g.AddEdge(from, to, label); err != nil {
		return err
	}
	l := o.syms.Intern(label)
	o.outPatch[from] = insertSortedEdge(o.adjacency(from, o.outPatch, o.base.outOff, o.base.out), CSREdge{To: to, Label: l})
	o.inPatch[to] = insertSortedEdge(o.adjacency(to, o.inPatch, o.base.inOff, o.base.in), CSREdge{To: from, Label: l})
	// One unit per edge, matching the |V|+|E| denominator of
	// DeltaFraction — counting both half-edge patches would silently
	// halve the documented compaction threshold for edge-heavy streams.
	o.touchLog = append(o.touchLog, from, to)
	o.delta++
	o.version = o.g.Version()
	return nil
}

// MustAddEdge is AddEdge that panics on error.
func (o *Overlay) MustAddEdge(from, to NodeID, label string) {
	if err := o.AddEdge(from, to, label); err != nil {
		panic(err)
	}
}

// SetAttr upserts attribute a = val on node v in the graph and the
// attribute index.
func (o *Overlay) SetAttr(v NodeID, a, val string) {
	o.g.SetAttr(v, a, val)
	o.attrs.SetAttr(v, a, val)
	o.attrLog = append(o.attrLog, v)
	o.delta++
	o.version = o.g.Version()
}

// adjacency returns the mutable adjacency slice of v for one direction:
// the existing patch, or a fresh copy of the base range on first touch.
func (o *Overlay) adjacency(v NodeID, patch map[NodeID][]CSREdge, off []int32, arena []CSREdge) []CSREdge {
	if es, ok := patch[v]; ok {
		return es
	}
	if int(v) < o.base.NumNodes() {
		base := arena[off[v]:off[v+1]]
		es := make([]CSREdge, len(base), len(base)+4)
		copy(es, base)
		return es
	}
	return nil
}

// insertSortedEdge inserts e into its (Label, To) position. Duplicate
// triples are kept adjacent, mirroring the graph's multi-edge behavior;
// the matcher collapses them like it does on a Snapshot.
func insertSortedEdge(es []CSREdge, e CSREdge) []CSREdge {
	pos := sort.Search(len(es), func(i int) bool {
		if es[i].Label != e.Label {
			return es[i].Label > e.Label
		}
		return es[i].To >= e.To
	})
	es = append(es, CSREdge{})
	copy(es[pos+1:], es[pos:])
	es[pos] = e
	return es
}

// ---- Topology ------------------------------------------------------------

// Syms returns the overlay's symbol table — the base snapshot's table,
// grown in place by updates.
func (o *Overlay) Syms() *Symbols { return o.syms }

// NumNodes returns |V| including nodes inserted after the freeze.
func (o *Overlay) NumNodes() int { return o.base.NumNodes() + len(o.newLabels) }

// NumEdges returns |E| as seen by the overlay.
func (o *Overlay) NumEdges() int { return o.g.NumEdges() }

// Label returns the interned label code of node v.
func (o *Overlay) Label(v NodeID) Sym {
	if n := o.base.NumNodes(); int(v) >= n {
		return o.newLabels[int(v)-n]
	}
	return o.base.Label(v)
}

// AttrSym returns the interned value of attribute name on node v.
func (o *Overlay) AttrSym(v NodeID, name Sym) (Sym, bool) {
	return o.attrs.AttrSym(v, name)
}

// Out returns v's out-adjacency: the patched slice for touched nodes, the
// base CSR range otherwise.
func (o *Overlay) Out(v NodeID) []CSREdge {
	if len(o.outPatch) > 0 {
		if es, ok := o.outPatch[v]; ok {
			return es
		}
	}
	if int(v) < o.base.NumNodes() {
		return o.base.Out(v)
	}
	return nil
}

// In returns v's in-adjacency; see Out.
func (o *Overlay) In(v NodeID) []CSREdge {
	if len(o.inPatch) > 0 {
		if es, ok := o.inPatch[v]; ok {
			return es
		}
	}
	if int(v) < o.base.NumNodes() {
		return o.base.In(v)
	}
	return nil
}

// OutDegree returns the number of out-edges of v.
func (o *Overlay) OutDegree(v NodeID) int { return len(o.Out(v)) }

// InDegree returns the number of in-edges of v.
func (o *Overlay) InDegree(v NodeID) int { return len(o.In(v)) }

// OutWith returns the contiguous subrange of v's out-adjacency with edge
// label l (the whole range for WildcardSym).
func (o *Overlay) OutWith(v NodeID, l Sym) []CSREdge { return labelRange(o.Out(v), l) }

// InWith is OutWith over the in-adjacency.
func (o *Overlay) InWith(v NodeID, l Sym) []CSREdge { return labelRange(o.In(v), l) }

// HasEdge reports whether a from -[l]-> to edge exists; l == WildcardSym
// matches any label.
func (o *Overlay) HasEdge(from, to NodeID, l Sym) bool {
	return hasEdgeRanges(o.Out(from), o.In(to), from, to, l)
}

// NodesWith returns the candidate class of label code l: the merged class
// for labels that gained nodes, the base range otherwise. Shared;
// read-only.
func (o *Overlay) NodesWith(l Sym) []NodeID {
	if len(o.classes) > 0 {
		if m, ok := o.classes[l]; ok {
			return m
		}
	}
	return o.base.NodesWith(l)
}

// NodesWithStripe returns the stripe candidates of label l. The overlay
// has no precomputed residue sub-ranges, so it over-approximates with the
// whole class; callers keep the residue filter (the Topology contract).
func (o *Overlay) NodesWithStripe(l Sym, mod, rem int) []NodeID { return o.NodesWith(l) }

// ClassSize returns the number of nodes carrying label code l.
func (o *Overlay) ClassSize(l Sym) int {
	if len(o.classes) > 0 {
		if m, ok := o.classes[l]; ok {
			return len(m)
		}
	}
	return o.base.ClassSize(l)
}

func (o *Overlay) getScratch() *bfsScratch {
	sc, _ := o.scratch.Get().(*bfsScratch)
	if sc == nil {
		sc = &bfsScratch{}
	}
	if n := o.NumNodes(); len(sc.stamp) < n {
		grown := make([]uint32, n)
		copy(grown, sc.stamp)
		sc.stamp = grown
	}
	sc.epoch++
	if sc.epoch == 0 {
		clear(sc.stamp)
		sc.epoch = 1
	}
	return sc
}

// bfs collects the nodes within c undirected hops of start into the
// returned scratch (discovery order, start first); the caller must Put it
// back. It deliberately repeats Snapshot.bfs with the patched accessors
// instead of sharing a Topology-generic traversal: workload estimation
// runs one traversal per pivot candidate on the snapshot path, and
// routing its adjacency reads through interface (or gcshape-dictionary)
// dispatch taxes the measured estimation spans the benchmark gate
// watches — the same rationale as the matcher's specialized inner loop.
// Behavioral changes must land in both copies; FuzzOverlayPatch pins this
// copy against a fresh freeze (Neighborhood, NeighborhoodSize, BlockInto).
func (o *Overlay) bfs(start NodeID, c int) *bfsScratch {
	if int(start) < 0 || int(start) >= o.NumNodes() {
		return nil
	}
	sc := o.getScratch()
	sc.visit(start)
	frontier := append(sc.frontier[:0], start)
	next := sc.next[:0]
	nodes := append(sc.nodes[:0], start)
	for hop := 0; hop < c && len(frontier) > 0; hop++ {
		next = next[:0]
		for _, v := range frontier {
			for _, e := range o.Out(v) {
				if !sc.visited(e.To) {
					sc.visit(e.To)
					next = append(next, e.To)
					nodes = append(nodes, e.To)
				}
			}
			for _, e := range o.In(v) {
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
// including start, sorted ascending.
func (o *Overlay) Neighborhood(start NodeID, c int) []NodeID {
	sc := o.bfs(start, c)
	if sc == nil {
		return nil
	}
	out := append([]NodeID(nil), sc.nodes...)
	o.scratch.Put(sc)
	sortNodeIDs(out)
	return out
}

// NeighborhoodSize returns |V'| + |E'| of the subgraph induced by the
// c-hop neighborhood of start.
func (o *Overlay) NeighborhoodSize(start NodeID, c int) int {
	sc := o.bfs(start, c)
	if sc == nil {
		return 0
	}
	size := len(sc.nodes)
	for _, v := range sc.nodes {
		for _, e := range o.Out(v) {
			if sc.visited(e.To) {
				size++
			}
		}
	}
	o.scratch.Put(sc)
	return size
}

// BlockInto adds to set every node within c undirected hops of start —
// the EpochSet fill the engines and the incremental detector use.
func (o *Overlay) BlockInto(set *EpochSet, start NodeID, c int) {
	if int(start) < 0 || int(start) >= o.NumNodes() {
		return
	}
	set.beginFill(o.NumNodes())
	set.visit[start] = set.visitEpoch
	set.Add(start)
	frontier := append(set.frontier[:0], start)
	next := set.next[:0]
	for hop := 0; hop < c && len(frontier) > 0; hop++ {
		next = next[:0]
		for _, v := range frontier {
			for _, e := range o.Out(v) {
				if set.visit[e.To] != set.visitEpoch {
					set.visit[e.To] = set.visitEpoch
					set.Add(e.To)
					next = append(next, e.To)
				}
			}
			for _, e := range o.In(v) {
				if set.visit[e.To] != set.visitEpoch {
					set.visit[e.To] = set.visitEpoch
					set.Add(e.To)
					next = append(next, e.To)
				}
			}
		}
		frontier, next = next, frontier
	}
	set.frontier, set.next = frontier, next
}
