package core

import (
	"repro/internal/cachehook"
	"repro/internal/relational"
	"repro/internal/twig"
	"repro/internal/xmldb"
	"repro/internal/xmldb/structix"
)

// validator checks whether a value tuple has a global node witness in the
// document: an assignment of one node per twig query node, with the tuple's
// values, satisfying every P-C and A-D edge simultaneously. This is the
// last step of Algorithm 1 — the attribute expansion enforces edges only
// pairwise at value level, which admits combinations with no single
// consistent embedding.
type validator struct {
	doc     *xmldb.Document
	pattern *twig.Pattern
	// nodes[i] locates the i-th query node's candidates.
	nodes []queryNode
}

// queryNode is where a query node's candidates come from: its tag's
// position in the tuple and the tag's nodes grouped by value.
type queryNode struct {
	col  int
	runs *structix.TagRuns
}

// validators resolves the final structural filter of every twig, building
// the twigs' tag runs under the run's build control. Each document's runs
// are resolved once, however many twigs read them.
func (q *Query) validators(order []string, ctl cachehook.BuildControl) ([]validator, error) {
	pos := make(map[string]int, len(order))
	for i, a := range order {
		pos[a] = i
	}
	vs := make([]validator, 0, len(q.twigs))
	for _, tw := range q.twigs {
		p := tw.pattern
		v := validator{doc: tw.ix.Doc(), pattern: p, nodes: make([]queryNode, p.Len())}
		for i, n := range p.Nodes() {
			c, ok := pos[n.Tag]
			if !ok {
				c = -1 // tag not in tuple: unconstrained value (cannot happen via XJoin)
			}
			tr, err := tagRuns(vs, tw.ix, n.Tag, ctl)
			if err != nil {
				return nil, err
			}
			v.nodes[i] = queryNode{col: c, runs: tr}
		}
		vs = append(vs, v)
	}
	return vs, nil
}

// tagRuns returns the runs of tag in ix's document as one of vs already
// resolved them, else resolves them under ctl.
func tagRuns(vs []validator, ix *structix.Index, tag string, ctl cachehook.BuildControl) (*structix.TagRuns, error) {
	for i := range vs {
		if vs[i].doc != ix.Doc() {
			continue
		}
		for j, q := range vs[i].pattern.Nodes() {
			if q.Tag == tag {
				return vs[i].nodes[j].runs, nil
			}
		}
	}
	return ix.Tag(tag, ctl)
}

// hasWitness reports whether tuple admits a consistent embedding.
func (v *validator) hasWitness(tuple relational.Tuple) bool {
	doc := v.doc
	nodes := v.pattern.Nodes()
	bind := make([]xmldb.NodeID, len(nodes))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(nodes) {
			return true
		}
		q := nodes[i]
		var cands []xmldb.NodeID
		if n := v.nodes[i]; n.col >= 0 {
			cands = n.runs.Run(tuple[n.col])
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
