package core

import (
	"repro/internal/hypergraph"
	"repro/internal/wcoj"
)

// MinBoundOrder chooses the attribute priority PA by greedily minimizing
// the per-stage worst-case bound: at each step it appends the remaining
// attribute whose extended prefix has the smallest weighted AGM bound over
// the executor atoms (ties broken by first-appearance order). This spends
// O(k²) small LPs at planning time to keep every T_i's *guarantee* low —
// the bound-driven refinement of Lemma 3.5.
//
// The LPs run over the lazy atom set including the region A-D atoms, which
// now report a cardinality bound (exact-projection product when the
// structural index has it resident, tag-count product otherwise — see
// RegionADAtom.Size), so A-D-heavy twigs inform the order instead of being
// invisible. More edges can only lower an AGM bound. Planning never
// materializes a pair set: A-D sizes are residency-safe (ADProjSizes), and
// the only structures it may build are the P-C pair tables behind
// EdgeAtom.Size — the ones the execution opens anyway.
func MinBoundOrder(q *Query) ([]string, error) {
	attrs := q.Attrs()
	atoms := q.atoms(ADLazy)
	sizes := atomSizes(q, atoms)

	chosen := make([]string, 0, len(attrs))
	inPrefix := make(map[string]bool, len(attrs))
	remaining := append([]string(nil), attrs...)
	for len(remaining) > 0 {
		bestIdx := -1
		var bestBound float64
		for i, cand := range remaining {
			inPrefix[cand] = true
			b, err := prefixBound(atoms, sizes, inPrefix)
			inPrefix[cand] = false
			if err != nil {
				return nil, err
			}
			if bestIdx < 0 || b < bestBound {
				bestIdx, bestBound = i, b
			}
		}
		pick := remaining[bestIdx]
		chosen = append(chosen, pick)
		inPrefix[pick] = true
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
	}
	return chosen, nil
}

// prefixBound is the weighted AGM bound of the atoms restricted to the
// prefix (the same quantity StageBounds computes per stage).
func prefixBound(atoms []wcoj.Atom, sizes map[string]int, inPrefix map[string]bool) (float64, error) {
	h := hypergraph.New()
	hsizes := make(map[string]int)
	any := false
	for _, at := range atoms {
		var inter []string
		for _, x := range at.Attrs() {
			if inPrefix[x] {
				inter = append(inter, x)
			}
		}
		if len(inter) == 0 {
			continue
		}
		if err := h.AddEdge(at.Name(), inter); err != nil {
			return 0, err
		}
		hsizes[at.Name()] = sizes[at.Name()]
		any = true
	}
	if !any {
		return 0, nil
	}
	b, _, err := h.AGMBound(hsizes, 1)
	return b, err
}
