// Package xmldb is the XML document model: a read-optimized, immutable
// document store with region encoding (start, end, level) for constant-time
// structural predicates, Dewey labels for path-based ancestry checks, the
// per-tag node lists in document order, and a streaming parser over
// encoding/xml. It defines no value-level index: the lazily built,
// catalog-accounted indexes over a document live in package structix.
//
// Element text values are dictionary-encoded through the same
// relational.Dict the relational side uses, so XML values and table values
// are directly joinable — the foundation of the paper's multi-model join.
package xmldb

import (
	"repro/internal/relational"
)

// NodeID identifies a node within one Document. IDs are assigned in
// document (preorder) order starting at 0, so comparing IDs compares
// document positions.
type NodeID int32

// NoNode is the absent-node sentinel (e.g. the root's parent).
const NoNode NodeID = -1

// Node is one element (or attribute) node. Attribute nodes are stored as
// children with tag "@"+name.
//
// The region encoding (Start, End, Level) supports the classic structural
// predicates: a is an ancestor of d iff a.Start < d.Start && d.End < a.End;
// adding Level-equality gives the parent-child test.
type Node struct {
	ID     NodeID
	Parent NodeID
	Tag    string
	// Value is the dictionary-encoded trimmed text content, or
	// relational.Null for elements without direct text.
	Value relational.Value
	Level int32
	Start int32
	End   int32
}
