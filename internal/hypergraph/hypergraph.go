// Package hypergraph models query hypergraphs — the join attributes as
// vertices and the (physical or virtual) relations as hyperedges — and
// computes the AGM machinery the paper's Equation 1 relies on: the minimum
// fractional edge cover, its dual maximum fractional vertex packing, and
// worst-case output size bounds, exactly (math/big.Rat) or weighted by
// actual relation cardinalities (float64).
package hypergraph

import (
	"fmt"
	"math"
	"math/big"
	"sort"

	"repro/internal/lp"
)

// Edge is one hyperedge: a named relation over a set of attributes.
type Edge struct {
	Name  string
	Attrs []string
}

// Hypergraph is a query hypergraph. Attributes are added implicitly by the
// edges that mention them.
type Hypergraph struct {
	attrs   []string
	attrPos map[string]int
	edges   []Edge
}

// New returns an empty hypergraph.
func New() *Hypergraph {
	return &Hypergraph{attrPos: make(map[string]int)}
}

// AddEdge appends a relation over the given attributes. Duplicate attribute
// mentions within one edge are collapsed; an edge with no attributes is an
// error (it could never constrain nor cover anything).
func (h *Hypergraph) AddEdge(name string, attrs []string) error {
	if len(attrs) == 0 {
		return fmt.Errorf("hypergraph: edge %q has no attributes", name)
	}
	seen := make(map[string]bool, len(attrs))
	var uniq []string
	for _, a := range attrs {
		if a == "" {
			return fmt.Errorf("hypergraph: edge %q has an empty attribute name", name)
		}
		if seen[a] {
			continue
		}
		seen[a] = true
		uniq = append(uniq, a)
		if _, ok := h.attrPos[a]; !ok {
			h.attrPos[a] = len(h.attrs)
			h.attrs = append(h.attrs, a)
		}
	}
	h.edges = append(h.edges, Edge{Name: name, Attrs: uniq})
	return nil
}

// Attrs returns the attributes in first-mention order.
func (h *Hypergraph) Attrs() []string { return h.attrs }

// Edges returns the hyperedges in insertion order.
func (h *Hypergraph) Edges() []Edge { return h.edges }

// Covered reports whether every attribute appears in at least one edge
// (always true by construction) and, more usefully, whether attribute a is
// known to the hypergraph.
func (h *Hypergraph) HasAttr(a string) bool {
	_, ok := h.attrPos[a]
	return ok
}

// EdgeCover is a fractional edge cover: one weight per edge, in edge order.
type EdgeCover struct {
	Weights []*big.Rat
	// Rho is the cover's total weight Σ x_R, the AGM exponent ρ*.
	Rho *big.Rat
}

// VertexPacking is a fractional vertex packing: one weight per attribute,
// in attribute order (the paper's Equation 1 dual variables y_a).
type VertexPacking struct {
	Weights []*big.Rat
	// Total is Σ y_a; by LP duality it equals the cover's Rho.
	Total *big.Rat
}

// FractionalEdgeCover solves min Σ_R x_R subject to Σ_{R ∋ a} x_R >= 1 for
// every attribute a, x >= 0, in exact rational arithmetic.
func (h *Hypergraph) FractionalEdgeCover() (*EdgeCover, error) {
	ar := lp.RatArith{}
	m := lp.NewModel[*big.Rat](ar, lp.Minimize)
	vars := make([]lp.VarID, len(h.edges))
	for i, e := range h.edges {
		vars[i] = m.AddVar("x_" + e.Name)
		m.SetObjective(vars[i], ar.One())
	}
	for _, a := range h.attrs {
		var terms []lp.Term[*big.Rat]
		for i, e := range h.edges {
			if containsAttr(e.Attrs, a) {
				terms = append(terms, lp.Term[*big.Rat]{Var: vars[i], Coeff: ar.One()})
			}
		}
		if err := m.AddConstraint("cover_"+a, terms, lp.GE, ar.One()); err != nil {
			return nil, err
		}
	}
	res, err := m.Solve()
	if err != nil {
		return nil, err
	}
	if res.Status != lp.Optimal {
		return nil, fmt.Errorf("hypergraph: edge cover LP is %v", res.Status)
	}
	c := &EdgeCover{Weights: res.Values, Rho: res.Objective}
	return c, nil
}

// FractionalVertexPacking solves the dual program of Equation 1:
// max Σ_a y_a subject to Σ_{a ∈ R} y_a <= 1 for every edge R, y >= 0.
func (h *Hypergraph) FractionalVertexPacking() (*VertexPacking, error) {
	ar := lp.RatArith{}
	m := lp.NewModel[*big.Rat](ar, lp.Maximize)
	vars := make([]lp.VarID, len(h.attrs))
	for i, a := range h.attrs {
		vars[i] = m.AddVar("y_" + a)
		m.SetObjective(vars[i], ar.One())
	}
	for _, e := range h.edges {
		terms := make([]lp.Term[*big.Rat], 0, len(e.Attrs))
		for _, a := range e.Attrs {
			terms = append(terms, lp.Term[*big.Rat]{Var: vars[h.attrPos[a]], Coeff: ar.One()})
		}
		if err := m.AddConstraint("pack_"+e.Name, terms, lp.LE, ar.One()); err != nil {
			return nil, err
		}
	}
	res, err := m.Solve()
	if err != nil {
		return nil, err
	}
	if res.Status != lp.Optimal {
		return nil, fmt.Errorf("hypergraph: vertex packing LP is %v", res.Status)
	}
	return &VertexPacking{Weights: res.Values, Total: res.Objective}, nil
}

// AGMExponent returns ρ*, the uniform worst-case exponent: with every
// relation of size at most N, |Q| <= N^ρ*. It is computed exactly.
func (h *Hypergraph) AGMExponent() (*big.Rat, error) {
	c, err := h.FractionalEdgeCover()
	if err != nil {
		return nil, err
	}
	return c.Rho, nil
}

// AGMBound computes the size-weighted AGM bound Π_R |R|^{x_R}, minimizing
// Σ_R x_R·ln|R| in float64 arithmetic. sizes maps edge name to cardinality;
// missing entries default to defaultSize. Empty relations make the bound 0.
func (h *Hypergraph) AGMBound(sizes map[string]int, defaultSize int) (float64, []float64, error) {
	for _, e := range h.edges {
		if n, ok := sizes[e.Name]; ok && n == 0 {
			w := make([]float64, len(h.edges))
			return 0, w, nil
		}
	}
	ar := lp.Float64Arith{}
	m := lp.NewModel[float64](ar, lp.Minimize)
	vars := make([]lp.VarID, len(h.edges))
	logs := make([]float64, len(h.edges))
	for i, e := range h.edges {
		n, ok := sizes[e.Name]
		if !ok {
			n = defaultSize
		}
		if n <= 0 {
			return 0, nil, fmt.Errorf("hypergraph: edge %q has nonpositive size %d", e.Name, n)
		}
		logs[i] = math.Log(float64(n))
		vars[i] = m.AddVar("x_" + e.Name)
		m.SetObjective(vars[i], logs[i])
	}
	for _, a := range h.attrs {
		var terms []lp.Term[float64]
		for i, e := range h.edges {
			if containsAttr(e.Attrs, a) {
				terms = append(terms, lp.Term[float64]{Var: vars[i], Coeff: 1})
			}
		}
		if err := m.AddConstraint("cover_"+a, terms, lp.GE, 1); err != nil {
			return 0, nil, err
		}
	}
	res, err := m.Solve()
	if err != nil {
		return 0, nil, err
	}
	if res.Status != lp.Optimal {
		return 0, nil, fmt.Errorf("hypergraph: weighted cover LP is %v", res.Status)
	}
	return math.Exp(res.Objective), res.Values, nil
}

// SubgraphOn returns the sub-hypergraph induced by keeping only the edges
// whose name satisfies keep. Attributes not mentioned by any kept edge are
// dropped.
func (h *Hypergraph) SubgraphOn(keep func(Edge) bool) *Hypergraph {
	sub := New()
	for _, e := range h.edges {
		if keep(e) {
			// Error impossible: e was validated on first insertion.
			_ = sub.AddEdge(e.Name, e.Attrs)
		}
	}
	return sub
}

// String renders the hypergraph as one line per edge.
func (h *Hypergraph) String() string {
	s := ""
	for _, e := range h.edges {
		attrs := append([]string(nil), e.Attrs...)
		sort.Strings(attrs)
		s += e.Name + "("
		for i, a := range attrs {
			if i > 0 {
				s += ", "
			}
			s += a
		}
		s += ")\n"
	}
	return s
}

func containsAttr(attrs []string, a string) bool {
	for _, x := range attrs {
		if x == a {
			return true
		}
	}
	return false
}
