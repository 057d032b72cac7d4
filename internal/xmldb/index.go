package xmldb

import (
	"sort"

	"repro/internal/cachehook"
	"repro/internal/relational"
)

// Indexes caches the value-level access paths the multi-model join needs:
// per-tag distinct values, (tag, value) -> node lists, and per parent-child
// tag pair the value-level edge index that backs the paper's virtual P-C
// relations. The per-tag structures build eagerly in NewIndexes and are
// then read lock-free; edge indexes build lazily on first use, at most once
// per tag pair, and Edge is safe for concurrent callers (the morsel-
// parallel executor's workers open edge atoms from many goroutines).
//
// Edge indexes live in a cachehook.Slots (see that package for the build,
// accounting and eviction protocol); the eager per-tag maps are pinned for
// the Indexes' lifetime and are not registered with the cache manager.
type Indexes struct {
	doc       *Document
	tagValues map[string]*relational.ValueSet
	byTagVal  map[string]map[relational.Value][]NodeID
	edges     cachehook.Slots[[2]string, *EdgeIndex]
}

// NewIndexes builds the per-tag indexes for doc. Edge indexes are built
// lazily on first use, since only the twig's P-C edges are ever requested.
func NewIndexes(doc *Document) *Indexes {
	ix := &Indexes{
		doc:       doc,
		tagValues: make(map[string]*relational.ValueSet),
		byTagVal:  make(map[string]map[relational.Value][]NodeID),
	}
	ix.edges.Fault = "xmldb.edge.build"
	for _, tag := range doc.Tags() {
		nodes := doc.NodesByTag(tag)
		vals := make([]relational.Value, 0, len(nodes))
		byVal := make(map[relational.Value][]NodeID)
		for _, id := range nodes {
			v := doc.Value(id)
			vals = append(vals, v)
			byVal[v] = append(byVal[v], id)
		}
		ix.tagValues[tag] = relational.NewValueSet(vals)
		ix.byTagVal[tag] = byVal
	}
	return ix
}

// Doc returns the indexed document.
func (ix *Indexes) Doc() *Document { return ix.doc }

// SetCacheObserver attaches the observer notified of edge-index builds and
// reuses (the shared-catalog integration). Call before the Indexes is
// shared — it is not synchronized against concurrent Edge calls.
func (ix *Indexes) SetCacheObserver(o cachehook.Observer) { ix.edges.Observer = o }

// TagValues returns the sorted distinct values of nodes tagged tag; an
// empty set if the tag does not occur.
func (ix *Indexes) TagValues(tag string) *relational.ValueSet {
	if s, ok := ix.tagValues[tag]; ok {
		return s
	}
	return relational.SortedValueSet(nil)
}

// NodesByTagValue returns the nodes with the given tag and value, in
// document order.
func (ix *Indexes) NodesByTagValue(tag string, v relational.Value) []NodeID {
	return ix.byTagVal[tag][v]
}

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
func (ix *Indexes) Edge(parentTag, childTag string) *EdgeIndex {
	e, _ := ix.EdgeCtl(nil, parentTag, childTag, cachehook.BuildControl{})
	return e
}

// edgeBuildCheckNodes is how many child nodes an edge-index build
// processes between cancellation polls.
const edgeBuildCheckNodes = 1024

// EdgeCtl is Edge with a run-scoped build control and an optional
// caller-held shortcut: the build polls ctl.Check every edgeBuildCheckNodes
// nodes and abandons with cachehook.ErrBuildCancelled.
func (ix *Indexes) EdgeCtl(ref *cachehook.Ref[*EdgeIndex], parentTag, childTag string, ctl cachehook.BuildControl) (*EdgeIndex, error) {
	if e, ok := ix.edges.Load(ref); ok {
		return e, nil
	}
	return ix.edges.Get(ref, [2]string{parentTag, childTag}, ctl, cachehook.Spec[*EdgeIndex]{
		Label: func() string { return "edge[" + parentTag + "/" + childTag + "]" },
		Build: func(check func() bool) (*EdgeIndex, error) {
			return buildEdgeIndex(ix.doc, parentTag, childTag, check)
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

func buildEdgeIndex(doc *Document, parentTag, childTag string, check func() bool) (*EdgeIndex, error) {
	e := &EdgeIndex{
		ParentTag: parentTag,
		ChildTag:  childTag,
		p2c:       make(map[relational.Value]*relational.ValueSet),
		c2p:       make(map[relational.Value]*relational.ValueSet),
	}
	p2c := make(map[relational.Value][]relational.Value)
	c2p := make(map[relational.Value][]relational.Value)
	for i, child := range doc.NodesByTag(childTag) {
		if check != nil && i%edgeBuildCheckNodes == 0 && check() {
			return nil, cachehook.ErrBuildCancelled
		}
		p := doc.Parent(child)
		if p == NoNode || doc.Tag(p) != parentTag {
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

// AncestorWithTagValue reports whether node n has a strict ancestor tagged
// tag with value v. Because trees are shallow relative to their size this
// walks the parent chain rather than maintaining a quadratic A-D index.
func (ix *Indexes) AncestorWithTagValue(n NodeID, tag string, v relational.Value) bool {
	doc := ix.doc
	for p := doc.Parent(n); p != NoNode; p = doc.Parent(p) {
		if doc.Tag(p) == tag && doc.Value(p) == v {
			return true
		}
	}
	return false
}
