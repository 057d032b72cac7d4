// Package structix is the one lazy index of an xmldb.Document: everything
// the multi-model join reads from a document beyond the document model
// itself is built here, on first use, as a cachehook entry the shared
// catalog accounts and may evict. It owns four kinds of structure:
//
//   - the per-tag runs, the tag's nodes grouped by value (TagRuns), behind
//     the twig's unary tag atoms, the validator's candidate lookup and the
//     A-D cursors;
//   - the P-C relations (Edge): per twig edge a two-column table of
//     (parent value, child value) pairs, one row per document edge, so at
//     most |child-tag nodes| rows, served through a wcoj.TableAtom;
//   - the exact unbound projections of each cut A-D edge;
//   - the per-tag nesting depth, the Lemma 3.2 quantity behind the A-D
//     atoms' size bound.
//
// Callers resolve a structure once per run and keep it for the run: the
// A-D edges are a first-class wcoj.Atom (RegionADAtom) that a run binds to
// its structures (Bind), so the twig's cut A-D edges filter intermediate
// results *during* the worst-case optimal join — the paper's future-work
// extension — without a cache lookup per Open and without ever
// materializing a value-level pair set.
//
// # Region encoding and the per-tag runs
//
// Every document node already carries the classic region encoding
// (Start, End, Level): a is a strict ancestor of d iff
// a.Start < d.Start && d.End < a.End, and because the regions of one
// document form a laminar family, a.Start < d.Start < a.End alone is
// equivalent. The index groups each tag's nodes by value:
//
//	TagRuns{ vals: sorted distinct values,
//	         runs: for each value, its nodes in document order }
//
// Document order is ascending Start order, so every run is a sorted list of
// start positions "for free". Building a tag's runs is one sort of the
// tag's (value, node) pairs into one node array that the runs window —
// O(n log n) time, O(n) memory.
//
// # The stab-query iterator
//
// The forward A-D cursor Open(desc, binding{anc=v}) walks the descendant
// tag's distinct values in sorted order and admits a value iff one of its
// nodes' start positions stabs an interval of the bound ancestor nodes — a
// merge of two document-ordered lists with early exit, O(log n) Seek into
// the value run. Nothing is materialized per Open; cursors are pooled. The
// reverse cursor Open(anc, binding{desc=v}) walks each bound descendant
// node's parent chain (the level/interval array) collecting matching
// ancestor tags' values into a pooled, sorted scratch buffer.
//
// Unbound projections ("which descendant values have *some* matching
// ancestor?") are computed once per edge with a single preorder stack pass
// (descendant side) and one binary search per ancestor node (ancestor
// side), cached on the Index, so they cost O(n log n) once — never O(n²).
package structix

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/cachehook"
	"repro/internal/relational"
	"repro/internal/wcoj"
	"repro/internal/xmldb"
)

// Index is the lazy index of one document. All methods are safe for
// concurrent use: each kind of structure lives in a cachehook.Slots (see
// that package for the build, accounting and eviction protocol), so the
// build of one structure never blocks lookups of another, and everything is
// immutable once built — which the morsel-parallel executor's -race tests
// exercise.
type Index struct {
	doc   *xmldb.Document
	tags  cachehook.Slots[string, *TagRuns]
	edges cachehook.Slots[[2]string, *wcoj.TableAtom]
	ad    cachehook.Slots[[2]string, *adProj]
	nest  cachehook.Slots[string, int]
}

// buildCheckNodes is how many nodes a structix build processes between
// cancellation polls — matched to the executors' checkInterval backstop,
// so a cold run cancelled mid-build returns within the same budget as one
// cancelled mid-enumeration.
const buildCheckNodes = 1024

// New returns an empty index over doc; all structures build lazily.
func New(doc *xmldb.Document) *Index {
	x := &Index{doc: doc}
	x.tags.Fault = "structix.tag.build"
	x.edges.Fault = "structix.edge.build"
	x.ad.Fault = "structix.ad.build"
	return x
}

// Doc returns the indexed document.
func (x *Index) Doc() *xmldb.Document { return x.doc }

// SetCacheObserver attaches the observer notified of builds and reuses
// (the shared-catalog integration). Call before the index is shared — it
// is not synchronized against concurrent lookups.
func (x *Index) SetCacheObserver(o cachehook.Observer) {
	x.tags.Observer = o
	x.edges.Observer = o
	x.ad.Observer = o
	x.nest.Observer = o
}

// TagRuns groups one tag's nodes by value: vals holds the sorted distinct
// values and runs[i] the nodes valued vals[i] in document order (ascending
// region Start). Immutable once built.
type TagRuns struct {
	vals []relational.Value
	runs [][]xmldb.NodeID
}

// Len reports the number of distinct values.
func (t *TagRuns) Len() int { return len(t.vals) }

// Values returns the sorted distinct values; the caller must not mutate.
func (t *TagRuns) Values() []relational.Value { return t.vals }

// Run returns the document-ordered nodes valued v (nil if absent).
func (t *TagRuns) Run(v relational.Value) []xmldb.NodeID {
	i := sort.Search(len(t.vals), func(i int) bool { return t.vals[i] >= v })
	if i < len(t.vals) && t.vals[i] == v {
		return t.runs[i]
	}
	return nil
}

// Tag returns (building if needed) the runs of one tag under a run-scoped
// build control: the build is refused up front when its estimated footprint
// alone exceeds the admitter's budget (cachehook.ErrBudgetExceeded — core
// degrades the run), and polls ctl.Check every buildCheckNodes nodes. With
// the zero control it fails only by an injected fault.
func (x *Index) Tag(tag string, ctl cachehook.BuildControl) (*TagRuns, error) {
	return x.tags.Get(tag, ctl, cachehook.Spec[*TagRuns]{
		Label: func() string { return "structix tag[" + tag + "]" },
		// Upper estimate (every value distinct): per node one NodeID, one
		// value slot and one run header.
		Estimate: func() int64 { return int64(len(x.doc.NodesByTag(tag)))*36 + 48 },
		Build:    func(check func() bool) (*TagRuns, error) { return buildTagRuns(x.doc, tag, check) },
		Bytes:    tagRunsBytes,
	})
}

// tagRunsBytes estimates one tag-run structure's heap footprint.
func tagRunsBytes(tr *TagRuns) int64 {
	const hdr = 24
	b := int64(len(tr.vals))*8 + 2*hdr
	for _, run := range tr.runs {
		b += int64(len(run))*4 + hdr
	}
	return b
}

func buildTagRuns(doc *xmldb.Document, tag string, check func() bool) (*TagRuns, error) {
	nodes := doc.NodesByTag(tag)
	// One sort of (value, node) pairs groups the nodes by value; node IDs
	// ascend in document order, so each value's nodes stay in that order.
	type pair struct {
		v  relational.Value
		id xmldb.NodeID
	}
	pairs := make([]pair, len(nodes))
	for i, id := range nodes {
		if check != nil && i%buildCheckNodes == 0 && check() {
			return nil, cachehook.ErrBuildCancelled
		}
		pairs[i] = pair{doc.Value(id), id}
	}
	slices.SortFunc(pairs, func(a, b pair) int {
		if c := cmp.Compare(a.v, b.v); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	// Every run is a window of one node array.
	ids := make([]xmldb.NodeID, len(pairs))
	tr := &TagRuns{}
	start := 0
	for i, p := range pairs {
		ids[i] = p.id
		if i+1 == len(pairs) || pairs[i+1].v != p.v {
			tr.vals = append(tr.vals, p.v)
			tr.runs = append(tr.runs, ids[start:i+1:i+1])
			start = i + 1
		}
	}
	return tr, nil
}

// stabs reports whether any node of run lies strictly inside the region of
// any node of anc. Both lists are in document order, so one merge walk with
// early exit decides it; nested ancestor intervals are skipped naturally
// (a descendant past an outer region is past all regions nested inside it).
func stabs(doc *xmldb.Document, run, anc []xmldb.NodeID) bool {
	i, j := 0, 0
	for i < len(run) && j < len(anc) {
		a, d := doc.Node(anc[j]), doc.Node(run[i])
		switch {
		case d.Start <= a.Start:
			i++ // d precedes (or is) this ancestor: try the next node
		case d.End < a.End:
			return true // laminar regions: inside iff a.Start < d.Start && d.End < a.End
		default:
			j++ // d lies after a's region: try the next ancestor
		}
	}
	return false
}

// adProj is one A-D edge's exact unbound projections: the sorted distinct
// ancestor values having at least one matching descendant, and vice versa —
// the two columns of the materialized A-D relation, computed in O(n log n)
// without touching any pair.
type adProj struct {
	ancs  []relational.Value
	descs []relational.Value
}

func (x *Index) projections(ancTag, descTag string, ctl cachehook.BuildControl) (*adProj, error) {
	return x.ad.Get([2]string{ancTag, descTag}, ctl, cachehook.Spec[*adProj]{
		Label: func() string { return "structix ad[" + ancTag + "//" + descTag + "]" },
		Estimate: func() int64 {
			return int64(len(x.doc.NodesByTag(ancTag))+len(x.doc.NodesByTag(descTag)))*8 + 48
		},
		Build: func(check func() bool) (*adProj, error) { return buildADProj(x.doc, ancTag, descTag, check) },
		Bytes: func(p *adProj) int64 { return int64(len(p.ancs)+len(p.descs))*8 + 48 },
	})
}

// ADProjSizes reports the cached A-D edge projection's cardinalities
// (|distinct ancestor values|, |distinct descendant values|) without
// building anything: ok is false while the projection has not been built,
// so planners can consult it residency-safely.
func (x *Index) ADProjSizes(ancTag, descTag string) (ancs, descs int, ok bool) {
	p, ok := x.ad.Peek([2]string{ancTag, descTag})
	if !ok {
		return 0, 0, false
	}
	return len(p.ancs), len(p.descs), true
}

func buildADProj(doc *xmldb.Document, ancTag, descTag string, check func() bool) (*adProj, error) {
	// Descendant side: one preorder pass with a stack of open ancestor
	// regions (their End positions). Node IDs ascend in document order, so
	// popping regions that closed before the current start keeps the stack
	// at exactly the open ancTag ancestors.
	var stack []int32
	var descs []relational.Value
	n := doc.Len()
	for i := 0; i < n; i++ {
		if check != nil && i%buildCheckNodes == 0 && check() {
			return nil, cachehook.ErrBuildCancelled
		}
		nd := doc.Node(xmldb.NodeID(i))
		for len(stack) > 0 && stack[len(stack)-1] < nd.Start {
			stack = stack[:len(stack)-1]
		}
		if nd.Tag == descTag && len(stack) > 0 {
			descs = append(descs, nd.Value)
		}
		if nd.Tag == ancTag {
			stack = append(stack, nd.End)
		}
	}

	// Ancestor side: an ancestor matches iff the first descendant start
	// after its own start still falls inside its region.
	descNodes := doc.NodesByTag(descTag)
	var ancs []relational.Value
	for i, a := range doc.NodesByTag(ancTag) {
		if check != nil && i%buildCheckNodes == 0 && check() {
			return nil, cachehook.ErrBuildCancelled
		}
		an := doc.Node(a)
		k := sort.Search(len(descNodes), func(i int) bool {
			return doc.Node(descNodes[i]).Start > an.Start
		})
		if k < len(descNodes) && doc.Node(descNodes[k]).Start < an.End {
			ancs = append(ancs, an.Value)
		}
	}
	return &adProj{ancs: sortDedup(ancs), descs: sortDedup(descs)}, nil
}

// sortDedup sorts vals in place and drops duplicates.
func sortDedup(vals []relational.Value) []relational.Value {
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	w := 0
	for i, v := range vals {
		if i == 0 || v != vals[w-1] {
			vals[w] = v
			w++
		}
	}
	return vals[:w]
}

// Info describes what the index currently holds, for the run statistics
// (core.Stats.StructIndexes/StructIndexBytes) and `xjoin -stats`.
type Info struct {
	// TagRuns is the number of per-tag run structures built so far.
	TagRuns int
	// Edges counts the built P-C pair tables, each with its projections.
	Edges int
	// EdgeProjections counts the cached A-D projection pairs.
	EdgeProjections int
	// NestingDepths counts the memoized per-tag nesting depths.
	NestingDepths int
	// ApproxBytes estimates the heap the built structures hold: value and
	// node-ID payloads plus slice headers. It is O(document size) by
	// construction — a structure stores each node of its tags a bounded
	// number of times (a P-C pair table one row per child node), and never
	// an A-D pair set.
	ApproxBytes int64
}

// Info reports the currently built structures. Safe for concurrent use
// with in-flight builds, which are not counted.
func (x *Index) Info() Info {
	var info Info
	x.tags.Each(func(_ string, _ *TagRuns, bytes int64) {
		info.TagRuns++
		info.ApproxBytes += bytes
	})
	x.edges.Each(func(_ [2]string, _ *wcoj.TableAtom, bytes int64) {
		info.Edges++
		info.ApproxBytes += bytes
	})
	x.ad.Each(func(_ [2]string, _ *adProj, bytes int64) {
		info.EdgeProjections++
		info.ApproxBytes += bytes
	})
	x.nest.Each(func(_ string, _ int, bytes int64) {
		info.NestingDepths++
		info.ApproxBytes += bytes
	})
	return info
}
