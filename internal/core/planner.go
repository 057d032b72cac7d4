package core

import "repro/internal/cachehook"

// MinBoundOrder chooses the attribute priority PA by greedily minimizing
// the per-stage worst-case bound: at each step it appends the remaining
// attribute whose extended prefix has the smallest weighted AGM bound over
// the executor atoms (ties broken by first-appearance order). This spends
// O(k²) small LPs at planning time to keep every T_i's *guarantee* low —
// the bound-driven refinement of Lemma 3.5.
//
// The LPs run over the lazy atom set including the region A-D atoms, which
// report a cardinality bound (exact-projection product when the structural
// index has it resident, tag-count product otherwise — see
// RegionADAtom.Size), so A-D-heavy twigs inform the order instead of being
// invisible. More edges can only lower an AGM bound. Planning never
// materializes a pair set: A-D sizes are residency-safe, and the only
// structures it may build are the tag runs and P-C pair tables whose sizes
// atomSizes reads — the ones the execution opens anyway. MinBoundOrder
// builds them unconditionally; a run plans under its own build control.
func MinBoundOrder(q *Query) ([]string, error) {
	return minBoundOrder(q, cachehook.BuildControl{})
}

// minBoundOrder is MinBoundOrder with the planning builds under ctl.
func minBoundOrder(q *Query, ctl cachehook.BuildControl) ([]string, error) {
	attrs := q.Attrs()
	atoms := q.atoms(ADLazy)
	sizes, err := atomSizes(atoms, ctl)
	if err != nil {
		return nil, err
	}

	chosen := make([]string, 0, len(attrs))
	inPrefix := make(map[string]bool, len(attrs))
	remaining := append([]string(nil), attrs...)
	for len(remaining) > 0 {
		bestIdx := -1
		var bestBound float64
		for i, cand := range remaining {
			inPrefix[cand] = true
			b, err := agmBound(atoms, sizes, inPrefix)
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
