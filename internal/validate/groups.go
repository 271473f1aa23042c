package validate

import (
	"gfd/internal/core"
	"gfd/internal/graph"
	"gfd/internal/pattern"
	"gfd/internal/workload"
)

// depSpec is one rule's dependency attached to a rule group: the rule plus
// the isomorphism perm mapping its own pattern node indices to the group
// pattern's node indices, and (when built through a Bundle) the rule's
// literal program lowered onto the bundle's symbol table.
type depSpec struct {
	rule *core.GFD
	perm []int                // rule node index -> group node index
	prog *core.LiteralProgram // bundle-held; nil falls back to ProgramFor
}

// ruleGroup is the multi-query processing unit (Appendix, "Multi-query
// processing"): rules whose patterns are isomorphic share a single pattern,
// pivot vector, work-unit set and match enumeration; each match is checked
// against every member dependency.
type ruleGroup struct {
	q     *pattern.Pattern
	pivot *workload.Pivot
	deps  []depSpec
}

// buildGroups partitions rules into groups. With combine=false (the *nop
// variants), every rule forms its own group and no enumeration sharing
// happens. arbitraryPivot selects the ablation pivot rule.
func buildGroups(rules []*core.GFD, combine, arbitraryPivot bool) []*ruleGroup {
	var groups []*ruleGroup
	computePivot := workload.ComputePivot
	if arbitraryPivot {
		computePivot = workload.ArbitraryPivot
	}
	for _, f := range rules {
		placed := false
		if combine {
			for _, grp := range groups {
				if perm, ok := isoMap(f.Q, grp.q); ok {
					grp.deps = append(grp.deps, depSpec{rule: f, perm: perm})
					placed = true
					break
				}
			}
		}
		if !placed {
			groups = append(groups, &ruleGroup{
				q:     f.Q,
				pivot: computePivot(f.Q),
				deps:  []depSpec{{rule: f, perm: identityPerm(f.Q.NumNodes())}},
			})
		}
	}
	return groups
}

// isoMap returns an isomorphism from pattern a onto pattern b, if one
// exists. Since exact embeddings never map a concrete label onto a
// wildcard, a full-size embedding with equal node and edge counts is a
// label-preserving isomorphism (see README.md, "Matching: worst-case-optimal
// intersection and factorized groups").
func isoMap(a, b *pattern.Pattern) ([]int, bool) {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return nil, false
	}
	embs := pattern.Embeddings(a, b)
	if len(embs) == 0 {
		return nil, false
	}
	// Verify the reverse direction to rule out wildcard refinements: the
	// found mapping must preserve labels exactly in both directions.
	m := embs[0].Map
	for i, hi := range m {
		if a.Nodes[i].Label != b.Nodes[hi].Label {
			return nil, false
		}
	}
	for _, e := range a.Edges {
		if !edgeLabelEqual(b, m[e.From], m[e.To], e.Label) {
			return nil, false
		}
	}
	return m, true
}

func edgeLabelEqual(p *pattern.Pattern, from, to int, label string) bool {
	for _, ei := range p.OutEdges(from) {
		e := p.Edges[ei]
		if e.To == to && e.Label == label {
			return true
		}
	}
	return false
}

func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// checkMatch evaluates every dependency of the group against a group-level
// match, delivering violations to emit (with matches remapped to each
// rule's own node order). The remapped match is staged in *scratch so the
// per-match hot path allocates only when a violation is actually recorded.
// Literal checking runs each rule's compiled program against the shared
// topology's interned attributes (the bundle-held program pointer in the
// steady state). Returns false when emit refused a violation and the
// enumeration must stop.
func (grp *ruleGroup) checkMatch(topo graph.Topology, m core.Match, scratch *core.Match, emit func(Violation) bool) bool {
	for _, d := range grp.deps {
		rm := *scratch
		if cap(rm) < len(d.perm) {
			rm = make(core.Match, len(d.perm))
		}
		rm = rm[:len(d.perm)]
		*scratch = rm
		for i, gi := range d.perm {
			rm[i] = m[gi]
		}
		p := d.prog
		if p == nil {
			p = d.rule.ProgramFor(topo.Syms())
		}
		if p.IsViolation(topo, rm) {
			if !emit(Violation{Rule: d.rule.Name, Match: append(core.Match(nil), rm...)}) {
				return false
			}
		}
	}
	return true
}
