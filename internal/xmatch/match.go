// Package xmatch implements node-level XML twig matching: the holistic
// TwigStack-family matcher used by the baseline's XML-only query Q2, and a
// naive navigational matcher kept as its correctness oracle.
//
// Both matchers produce embeddings at node level; the multi-model layer
// projects them to value tuples when joining with relational data.
package xmatch

import (
	"sort"

	"repro/internal/twig"
	"repro/internal/xmldb"
)

// Match is one embedding of a pattern into a document: Match[i] is the node
// bound to pattern.Nodes()[i] (preorder).
type Match []xmldb.NodeID

// Stats reports the work a matcher performed; the baseline experiments use
// it to account intermediate result sizes.
type Stats struct {
	// PathSolutions is the total number of root-leaf path solutions
	// produced before merging.
	PathSolutions int
	// PeakIntermediate is the largest materialized intermediate collection
	// at any point of the algorithm.
	PeakIntermediate int
	// Output is the number of complete embeddings.
	Output int
}

func (s *Stats) bump(n int) {
	if n > s.PeakIntermediate {
		s.PeakIntermediate = n
	}
}

// streamFor returns the document nodes a query node ranges over, in
// document order: nodes with the query tag, restricted by the node's value
// filter, and pinned to the document element for a rooted pattern's root.
func streamFor(doc *xmldb.Document, p *twig.Pattern, q *twig.Node) []xmldb.NodeID {
	var nodes []xmldb.NodeID
	if q.Parent == nil && p.Rooted() {
		if doc.Tag(doc.Root()) == q.Tag {
			nodes = []xmldb.NodeID{doc.Root()}
		}
	} else {
		nodes = doc.NodesByTag(q.Tag)
	}
	if q.ValueFilter == "" {
		return nodes
	}
	want, ok := doc.Dict().Lookup(q.ValueFilter)
	if !ok {
		return nil
	}
	var out []xmldb.NodeID
	for _, n := range nodes {
		if doc.Value(n) == want {
			out = append(out, n)
		}
	}
	return out
}

// nodeOK reports whether document node n satisfies q's value filter (the
// tag is assumed to have been checked by the caller).
func nodeOK(doc *xmldb.Document, q *twig.Node, n xmldb.NodeID) bool {
	if q.ValueFilter == "" {
		return true
	}
	want, ok := doc.Dict().Lookup(q.ValueFilter)
	return ok && doc.Value(n) == want
}

// NaiveMatch enumerates all embeddings by preorder backtracking. It is the
// oracle the optimized matchers are tested against; its complexity is
// exponential in the pattern size in the worst case.
func NaiveMatch(doc *xmldb.Document, p *twig.Pattern) []Match {
	nodes := p.Nodes()
	binding := make(Match, len(nodes))
	var out []Match
	var rec func(i int)
	rec = func(i int) {
		if i == len(nodes) {
			out = append(out, append(Match(nil), binding...))
			return
		}
		q := nodes[i]
		if q.Parent == nil {
			for _, cand := range streamFor(doc, p, q) {
				binding[i] = cand
				rec(i + 1)
			}
			return
		}
		pb := binding[q.Parent.ID]
		if q.Axis == twig.Child {
			for _, c := range doc.Children(pb) {
				if doc.Tag(c) == q.Tag && nodeOK(doc, q, c) {
					binding[i] = c
					rec(i + 1)
				}
			}
			return
		}
		for _, cand := range doc.NodesByTag(q.Tag) {
			if doc.IsAncestor(pb, cand) && nodeOK(doc, q, cand) {
				binding[i] = cand
				rec(i + 1)
			}
		}
	}
	rec(0)
	return out
}

// SortMatches orders embeddings lexicographically, for comparisons.
func SortMatches(ms []Match) {
	sort.Slice(ms, func(i, j int) bool {
		a, b := ms[i], ms[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

// EqualMatchSets reports whether two embedding sets are equal up to order.
func EqualMatchSets(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	a2 := append([]Match(nil), a...)
	b2 := append([]Match(nil), b...)
	SortMatches(a2)
	SortMatches(b2)
	for i := range a2 {
		if len(a2[i]) != len(b2[i]) {
			return false
		}
		for k := range a2[i] {
			if a2[i][k] != b2[i][k] {
				return false
			}
		}
	}
	return true
}
