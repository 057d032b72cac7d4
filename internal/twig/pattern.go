// Package twig models XML twig patterns — the tree-shaped queries of the
// paper — and implements its core structural transformation (Figure 2):
// cutting ancestor-descendant edges into sub-twigs, enumerating root-leaf
// parent-child paths, and exposing each path as a relational-like schema
// whose worst-case cardinality is bounded by the leaf tag's node count.
package twig

import (
	"fmt"
	"strings"
)

// Axis is the structural relationship between a twig node and its parent.
type Axis int

const (
	// Child is the parent-child (P-C) axis, written "/".
	Child Axis = iota
	// Descendant is the ancestor-descendant (A-D) axis, written "//".
	Descendant
)

func (a Axis) String() string {
	if a == Descendant {
		return "//"
	}
	return "/"
}

// Node is one query node of a twig pattern. Its Axis describes the edge
// from its parent (meaningless for the root, where it records how the twig
// anchors to the document: Child for a "/"-rooted pattern that must match
// the document element, Descendant for match-anywhere).
type Node struct {
	// ID is the node's preorder index within its pattern.
	ID int
	// Tag is the element tag the node matches; it doubles as the join
	// attribute name.
	Tag string
	// ValueFilter, when non-empty, restricts the node to elements whose
	// text equals it (written tag="value" in the pattern syntax) — a
	// selection pushed into the twig.
	ValueFilter string
	// Axis relates the node to its parent (or anchors the root).
	Axis     Axis
	Parent   *Node
	Children []*Node
}

// Pattern is a parsed twig. Tags are unique within a pattern (the paper
// identifies join attributes with tags), which Parse enforces.
type Pattern struct {
	root  *Node
	nodes []*Node // preorder
	byTag map[string]*Node
}

// Root returns the twig's root query node.
func (p *Pattern) Root() *Node { return p.root }

// Nodes returns all query nodes in preorder.
func (p *Pattern) Nodes() []*Node { return p.nodes }

// Len reports the number of query nodes.
func (p *Pattern) Len() int { return len(p.nodes) }

// NodeByTag returns the query node with the given tag, or nil.
func (p *Pattern) NodeByTag(tag string) *Node { return p.byTag[tag] }

// Attrs returns the tags in preorder; these are the twig's join attributes.
func (p *Pattern) Attrs() []string {
	out := make([]string, len(p.nodes))
	for i, n := range p.nodes {
		out[i] = n.Tag
	}
	return out
}

// Rooted reports whether the pattern anchors at the document element
// (parsed from a leading "/").
func (p *Pattern) Rooted() bool { return p.root.Axis == Child }

// String renders the pattern in the XPath subset accepted by Parse.
func (p *Pattern) String() string {
	var sb strings.Builder
	sb.WriteString(p.root.Axis.String())
	writeNode(&sb, p.root)
	return sb.String()
}

func writeNode(sb *strings.Builder, n *Node) {
	sb.WriteString(n.Tag)
	if n.ValueFilter != "" {
		sb.WriteString("=\"")
		sb.WriteString(n.ValueFilter)
		sb.WriteString("\"")
	}
	if len(n.Children) == 0 {
		return
	}
	// All children but the last render as predicates; the last continues
	// the trunk, matching the common XPath writing style.
	for _, c := range n.Children[:len(n.Children)-1] {
		sb.WriteString("[")
		sb.WriteString(strings.TrimPrefix(renderSub(c), "/"))
		sb.WriteString("]")
	}
	last := n.Children[len(n.Children)-1]
	sb.WriteString(last.Axis.String())
	writeNode(sb, last)
}

func renderSub(n *Node) string {
	var sb strings.Builder
	sb.WriteString(n.Axis.String())
	writeNode(&sb, n)
	s := sb.String()
	if strings.HasPrefix(s, "//") {
		return "." + s // predicates use .// for descendants
	}
	return s
}

// build assembles a Pattern from a root node tree, assigning preorder IDs
// and validating tag uniqueness.
func build(root *Node) (*Pattern, error) {
	p := &Pattern{root: root, byTag: make(map[string]*Node)}
	var walk func(n *Node) error
	walk = func(n *Node) error {
		if n.Tag == "" {
			return fmt.Errorf("twig: empty tag")
		}
		if _, dup := p.byTag[n.Tag]; dup {
			return fmt.Errorf("twig: tag %q appears twice; twig tags double as join attributes and must be unique", n.Tag)
		}
		n.ID = len(p.nodes)
		p.nodes = append(p.nodes, n)
		p.byTag[n.Tag] = n
		for _, c := range n.Children {
			c.Parent = n
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(root); err != nil {
		return nil, err
	}
	return p, nil
}
