package core

import (
	"fmt"
	"math/big"

	"repro/internal/cachehook"
	"repro/internal/hypergraph"
	"repro/internal/twig"
	"repro/internal/wcoj"
)

// Bounds packages the worst-case size bounds of a multi-model query
// (Equation 1 / Lemmas 3.1-3.2), computed on the paper's transformed
// hypergraph: the relational atoms plus the twig's derived root-leaf path
// relations (Figure 2).
type Bounds struct {
	// Paper is the transformed hypergraph (tables + path relations).
	Paper *hypergraph.Hypergraph
	// Exponent is the exact uniform AGM exponent ρ* of the full query:
	// with every relation of size at most N, |Q| <= N^ρ*.
	Exponent *big.Rat
	// TwigExponent is ρ* of the twig-only subquery (the paper's Q2).
	// Nil when the query has no twig.
	TwigExponent *big.Rat
	// RelationalExponent is ρ* of the tables-only subquery (the paper's
	// Q1). Nil when the query has no tables.
	RelationalExponent *big.Rat
	// WeightedBound instantiates the bound with actual cardinalities:
	// table sizes for relational atoms, leaf-tag node counts for path
	// relations (the transformation's cardinality guarantee).
	WeightedBound float64
	// ExecBound is the weighted AGM bound of the hypergraph the executor
	// actually joins over (tables + virtual P-C edges + unary tag atoms);
	// Lemma 3.5 bounds every XJoin stage by it.
	ExecBound float64
}

// ComputeBounds derives all size bounds for q.
func ComputeBounds(q *Query) (*Bounds, error) {
	b := &Bounds{}

	paper, sizes, err := paperHypergraph(q)
	if err != nil {
		return nil, err
	}
	b.Paper = paper

	b.Exponent, err = paper.AGMExponent()
	if err != nil {
		return nil, fmt.Errorf("core: full-query exponent: %w", err)
	}
	if len(q.twigs) > 0 {
		tw := paper.SubgraphOn(func(e hypergraph.Edge) bool { return isTwigEdge(e.Name) })
		b.TwigExponent, err = tw.AGMExponent()
		if err != nil {
			return nil, fmt.Errorf("core: twig exponent: %w", err)
		}
	}
	if len(q.Tables) > 0 {
		rel := paper.SubgraphOn(func(e hypergraph.Edge) bool { return !isTwigEdge(e.Name) })
		b.RelationalExponent, err = rel.AGMExponent()
		if err != nil {
			return nil, fmt.Errorf("core: relational exponent: %w", err)
		}
	}

	b.WeightedBound, _, err = paper.AGMBound(sizes, 1)
	if err != nil {
		return nil, fmt.Errorf("core: weighted bound: %w", err)
	}

	b.ExecBound, err = execBound(q)
	if err != nil {
		return nil, fmt.Errorf("core: executor bound: %w", err)
	}
	return b, nil
}

// isTwigEdge distinguishes derived path relations — named "X[...]" for
// single-twig queries and "X<i>[...]" for multi-twig ones — from relational
// tables in the paper hypergraph. (A user table named in exactly this form
// would be misclassified in the Q1/Q2 sub-bound reporting; the full-query
// bound is unaffected.)
func isTwigEdge(name string) bool {
	if len(name) == 0 || name[0] != 'X' {
		return false
	}
	i := 1
	for i < len(name) && name[i] >= '0' && name[i] <= '9' {
		i++
	}
	return i < len(name) && name[i] == '['
}

// paperHypergraph builds the transformed hypergraph of Figure 2 and the
// actual cardinalities of its edges.
func paperHypergraph(q *Query) (*hypergraph.Hypergraph, map[string]int, error) {
	h := hypergraph.New()
	sizes := make(map[string]int)
	for _, t := range q.Tables {
		if err := h.AddEdge(t.Name(), t.Schema().Attrs()); err != nil {
			return nil, nil, err
		}
		sizes[t.Name()] = t.Len()
	}
	for pi, tw := range q.twigs {
		tr := twig.Transform(tw.pattern)
		for _, p := range tr.Paths {
			name := p.Name
			if len(q.twigs) > 1 {
				// Disambiguate identical paths from different twigs.
				name = fmt.Sprintf("X%d%s", pi+1, name[1:])
			}
			if err := h.AddEdge(name, p.Attrs()); err != nil {
				return nil, nil, err
			}
			// The transformation's size guarantee: a root-leaf P-C path has
			// at most one tuple per node of its leaf tag.
			sizes[name] = len(tw.ix.Doc().NodesByTag(p.Leaf().Tag))
		}
	}
	return h, sizes, nil
}

// StageBounds returns, for each prefix order[:i+1] of the expansion order,
// the worst-case bound on XJoin's materialized stage T_i — the per-stage
// guarantee of Lemma 3.5. The bound for a prefix P is the weighted AGM
// bound of the executor atoms restricted to P: atoms disjoint from P do not
// constrain T_i (their projection onto P is the nullary tuple), and an
// atom's projection onto P is at most its full cardinality. It builds the
// structures the sizes read unconditionally, outside any run.
func StageBounds(q *Query, order []string) ([]float64, error) {
	atoms := q.atoms(ADPostHoc)
	sizes, err := atomSizes(atoms, cachehook.BuildControl{})
	if err != nil {
		return nil, err
	}
	bounds := make([]float64, len(order))
	inPrefix := make(map[string]bool, len(order))
	for i, a := range order {
		inPrefix[a] = true
		if bounds[i], err = agmBound(atoms, sizes, inPrefix); err != nil {
			return nil, fmt.Errorf("core: stage %d bound: %w", i, err)
		}
	}
	return bounds, nil
}

// agmBound is the one bound LP of the planners: the AGM bound of atoms
// weighted by sizes, each atom restricted to the attributes keep holds
// (atoms keeping none drop out), or unrestricted when keep is nil.
func agmBound(atoms []wcoj.Atom, sizes map[string]int, keep map[string]bool) (float64, error) {
	h := hypergraph.New()
	hsizes := make(map[string]int)
	for _, at := range atoms {
		attrs := at.Attrs()
		if keep != nil {
			var inter []string
			for _, x := range attrs {
				if keep[x] {
					inter = append(inter, x)
				}
			}
			if len(inter) == 0 {
				continue
			}
			attrs = inter
		}
		if err := h.AddEdge(at.Name(), attrs); err != nil {
			return 0, err
		}
		hsizes[at.Name()] = sizes[at.Name()]
	}
	b, _, err := h.AGMBound(hsizes, 1)
	return b, err
}

// execBound computes the weighted AGM bound over the executor's own atoms.
func execBound(q *Query) (float64, error) {
	atoms := q.atoms(ADPostHoc)
	sizes, err := atomSizes(atoms, cachehook.BuildControl{})
	if err != nil {
		return 0, err
	}
	return agmBound(atoms, sizes, nil)
}
