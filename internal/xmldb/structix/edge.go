package structix

import (
	"sort"

	"repro/internal/cachehook"
	"repro/internal/relational"
	"repro/internal/xmldb"
)

// EdgeIndex is the value-level index of one parent-child tag pair: for an
// edge (parentTag p, childTag c) it records, for every value of a p-node
// that has at least one c-child, the sorted distinct values of those
// children — and the mirror direction. This is the paper's "continuous P-C
// relation considered as a relational table" without materializing it.
type EdgeIndex struct {
	ParentTag, ChildTag string
	// PairCount is the number of (parent node, child node) edges, which is
	// the cardinality |R| of the virtual relation before value dedup. It is
	// bounded by the number of childTag nodes (each node has one parent).
	PairCount int
	parents   *relational.ValueSet
	children  *relational.ValueSet
	p2c       map[relational.Value]*relational.ValueSet
	c2p       map[relational.Value]*relational.ValueSet
}

// Edge returns (building if needed) the edge index for parentTag/childTag.
// This unconditional form cannot fail; cancellable callers use EdgeCtl.
func (x *Index) Edge(parentTag, childTag string) *EdgeIndex {
	e, _ := x.EdgeCtl(nil, parentTag, childTag, cachehook.BuildControl{})
	return e
}

// EdgeCtl is Edge with a run-scoped build control and an optional
// caller-held shortcut: the build polls ctl.Check every buildCheckNodes
// nodes and abandons with cachehook.ErrBuildCancelled.
func (x *Index) EdgeCtl(ref *cachehook.Ref[*EdgeIndex], parentTag, childTag string, ctl cachehook.BuildControl) (*EdgeIndex, error) {
	if e, ok := x.edges.Load(ref); ok {
		return e, nil
	}
	return x.edges.Get(ref, [2]string{parentTag, childTag}, ctl, cachehook.Spec[*EdgeIndex]{
		Label: func() string { return "edge[" + parentTag + "/" + childTag + "]" },
		Build: func(check func() bool) (*EdgeIndex, error) {
			return buildEdgeIndex(x.doc, parentTag, childTag, check)
		},
		Bytes: (*EdgeIndex).approxBytes,
	})
}

// approxBytes estimates the edge index's heap footprint: both directions'
// value sets plus per-entry map overhead.
func (e *EdgeIndex) approxBytes() int64 {
	const (
		valueSize = 8
		mapEntry  = 48 // key + pointer + amortized bucket bookkeeping
	)
	b := int64(e.parents.Len()+e.children.Len()) * valueSize
	for _, s := range e.p2c {
		b += int64(s.Len())*valueSize + mapEntry
	}
	for _, s := range e.c2p {
		b += int64(s.Len())*valueSize + mapEntry
	}
	return b
}

func buildEdgeIndex(doc *xmldb.Document, parentTag, childTag string, check func() bool) (*EdgeIndex, error) {
	e := &EdgeIndex{
		ParentTag: parentTag,
		ChildTag:  childTag,
		p2c:       make(map[relational.Value]*relational.ValueSet),
		c2p:       make(map[relational.Value]*relational.ValueSet),
	}
	p2c := make(map[relational.Value][]relational.Value)
	c2p := make(map[relational.Value][]relational.Value)
	for i, child := range doc.NodesByTag(childTag) {
		if check != nil && i%buildCheckNodes == 0 && check() {
			return nil, cachehook.ErrBuildCancelled
		}
		p := doc.Parent(child)
		if p == xmldb.NoNode || doc.Tag(p) != parentTag {
			continue
		}
		e.PairCount++
		pv, cv := doc.Value(p), doc.Value(child)
		p2c[pv] = append(p2c[pv], cv)
		c2p[cv] = append(c2p[cv], pv)
	}
	e.parents = keysSet(p2c)
	e.children = keysSet(c2p)
	for pv, cs := range p2c {
		e.p2c[pv] = relational.NewValueSet(cs)
	}
	for cv, ps := range c2p {
		e.c2p[cv] = relational.NewValueSet(ps)
	}
	return e, nil
}

func keysSet(m map[relational.Value][]relational.Value) *relational.ValueSet {
	keys := make([]relational.Value, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return relational.SortedValueSet(keys)
}

// ParentValues returns the sorted distinct values of parent nodes having at
// least one matching child.
func (e *EdgeIndex) ParentValues() *relational.ValueSet { return e.parents }

// ChildValues returns the sorted distinct values of matching child nodes.
func (e *EdgeIndex) ChildValues() *relational.ValueSet { return e.children }

// ChildrenOf returns the sorted distinct values of childTag-children of
// parentTag-nodes valued pv; nil if there are none.
func (e *EdgeIndex) ChildrenOf(pv relational.Value) *relational.ValueSet { return e.p2c[pv] }

// ParentsOf returns the sorted distinct values of parentTag-parents of
// childTag-nodes valued cv; nil if there are none.
func (e *EdgeIndex) ParentsOf(cv relational.Value) *relational.ValueSet { return e.c2p[cv] }

// HasPair reports whether some parent node valued pv has a child valued cv.
func (e *EdgeIndex) HasPair(pv, cv relational.Value) bool {
	cs := e.p2c[pv]
	return cs != nil && cs.Contains(cv)
}
