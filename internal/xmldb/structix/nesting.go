package structix

import "repro/internal/cachehook"

// NestingDepth reports the maximum number of tag-tagged nodes that are
// simultaneously open on any root-to-leaf path of the document — the
// paper's Lemma 3.2 quantity: every node has at most NestingDepth(t)
// ancestors tagged t, so any A-D edge with ancestor tag t realizes at
// most |descendant nodes| × NestingDepth(t) node pairs. On realistic
// documents, where an element does not nest within itself, the depth is 1
// and the quadratic tag-product bound collapses to the descendant count.
//
// The pass is O(|nodes tagged t|) (the tag's nodes arrive in document
// order, so a stack of open region Ends tracks the live ancestors) and
// the result is memoized per tag like every other structure of the index.
func (x *Index) NestingDepth(tag string) int {
	d, _ := x.nest.Get(tag, cachehook.BuildControl{}, cachehook.Spec[int]{
		Label: func() string { return "structix nest[" + tag + "]" },
		Build: func(func() bool) (int, error) { return x.nestingDepth(tag), nil },
		Bytes: func(int) int64 { return 48 }, // one map slot
	})
	return d
}

func (x *Index) nestingDepth(tag string) int {
	var stack []int32
	max := 0
	for _, id := range x.doc.NodesByTag(tag) {
		nd := x.doc.Node(id)
		for len(stack) > 0 && stack[len(stack)-1] < nd.Start {
			stack = stack[:len(stack)-1]
		}
		stack = append(stack, nd.End)
		if len(stack) > max {
			max = len(stack)
		}
	}
	return max
}
