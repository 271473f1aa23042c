package reason

import (
	"fmt"

	"gfd/internal/core"
)

// Conflict describes why a rule set is unsatisfiable: a host pattern (owned
// by HostRule) on which the enforced closure binds one attribute occurrence
// to two distinct constants.
type Conflict struct {
	// HostRule owns the host pattern Q on which the conflict arises; every
	// model of Σ must contain a match of Q, so the conflict is genuine.
	HostRule string
	// Rules are the names of the rules whose embedded GFDs participate in
	// the conflicting closure (a superset of the minimal culprit set).
	Rules []string
}

func (c *Conflict) Error() string {
	return fmt.Sprintf("gfd set unsatisfiable: conflicting enforced literals on pattern of %s (rules %v)", c.HostRule, c.Rules)
}

// Satisfiable decides whether Σ has a model: a non-empty graph satisfying
// every GFD in which every pattern has a match (Section 4.1). It returns a
// non-nil *Conflict when unsatisfiable.
//
// The procedure implements the characterization of Lemma 3: Σ is
// unsatisfiable iff some set Σ_Q of GFDs embedded in a pattern Q and
// derived from Σ is conflicting. Host patterns Q range over the patterns of
// Σ itself: under the paper's size bound (|Q| at most the largest pattern
// in Σ), a host that embeds the largest participating pattern is
// isomorphic to it, so rule patterns are the canonical hosts. Embeddings
// are exact — a concrete label never maps onto a
// wildcard host node — because an embedded GFD must apply to *every* match
// of the host for a conflict to contradict the required match.
func Satisfiable(s *core.Set) (bool, *Conflict) {
	rules := s.Rules()
	// Tractable shortcuts (Corollary 4): a set of variable GFDs only, or a
	// set with no rule of the form (Q, ∅ → Y), is always satisfiable —
	// nothing can enforce two distinct constants on one attribute.
	if allVariable(rules) || noEmptyAntecedent(rules) {
		return true, nil
	}
	for _, hostRule := range rules {
		emb := embedAll(rules, hostRule.Q)
		rel := newEqRel()
		chase(rel, emb)
		if rel.conflict {
			return false, &Conflict{HostRule: hostRule.Name, Rules: participantNames(emb)}
		}
	}
	return true, nil
}

// XSatisfiable reports whether the antecedent X of ϕ is itself satisfiable
// (no two distinct constants forced on the same attribute occurrence via
// transitivity). Implication treats rules with unsatisfiable X as trivially
// implied.
func XSatisfiable(f *core.GFD) bool {
	rel := newEqRel()
	e := rewrite(&core.GFD{Name: f.Name, Q: f.Q, X: nil, Y: f.X}, identityMap(f.Q.NumNodes()))
	for _, l := range e.y {
		rel.apply(l)
		if rel.conflict {
			return false
		}
	}
	return true
}

func identityMap(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return m
}

func allVariable(rules []*core.GFD) bool {
	for _, f := range rules {
		if !f.IsVariable() {
			return false
		}
	}
	return true
}

func noEmptyAntecedent(rules []*core.GFD) bool {
	for _, f := range rules {
		if len(f.X) == 0 && len(f.Y) > 0 {
			return false
		}
	}
	return true
}

func participantNames(emb []embeddedGFD) []string {
	seen := make(map[string]struct{})
	var out []string
	for _, e := range emb {
		if _, dup := seen[e.src.Name]; !dup {
			seen[e.src.Name] = struct{}{}
			out = append(out, e.src.Name)
		}
	}
	return out
}
