package core

import (
	"repro/internal/relational"
	"repro/internal/twig"
	"repro/internal/xmldb"
)

// validator checks whether a value tuple has a global node witness in the
// document: an assignment of one node per twig query node, with the tuple's
// values, satisfying every P-C and A-D edge simultaneously. This is the
// last step of Algorithm 1 — the attribute expansion enforces edges only
// pairwise at value level, which admits combinations with no single
// consistent embedding.
type validator struct {
	ix      *xmldb.Indexes
	pattern *twig.Pattern
	// col[i] is the tuple position of the i-th query node's tag.
	col []int
}

func newValidator(ix *xmldb.Indexes, p *twig.Pattern, attrs []string) validator {
	pos := make(map[string]int, len(attrs))
	for i, a := range attrs {
		pos[a] = i
	}
	v := validator{ix: ix, pattern: p, col: make([]int, p.Len())}
	for i, q := range p.Nodes() {
		c, ok := pos[q.Tag]
		if !ok {
			c = -1 // tag not in tuple: unconstrained value (cannot happen via XJoin)
		}
		v.col[i] = c
	}
	return v
}

// hasWitness reports whether tuple admits a consistent embedding.
func (v *validator) hasWitness(tuple relational.Tuple) bool {
	doc := v.ix.Doc()
	nodes := v.pattern.Nodes()
	bind := make([]xmldb.NodeID, len(nodes))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(nodes) {
			return true
		}
		q := nodes[i]
		var cands []xmldb.NodeID
		if v.col[i] >= 0 {
			cands = v.ix.NodesByTagValue(q.Tag, tuple[v.col[i]])
		} else {
			cands = doc.NodesByTag(q.Tag)
		}
		for _, c := range cands {
			if q.Parent == nil {
				if v.pattern.Rooted() && c != doc.Root() {
					continue
				}
			} else {
				p := bind[q.Parent.ID]
				if q.Axis == twig.Child {
					if doc.Parent(c) != p {
						continue
					}
				} else if !doc.IsAncestor(p, c) {
					continue
				}
			}
			bind[q.ID] = c
			if rec(i + 1) {
				return true
			}
		}
		return false
	}
	return rec(0)
}
