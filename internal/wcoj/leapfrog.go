package wcoj

import (
	"fmt"
	"sort"

	"repro/internal/relational"
)

// LeapfrogTriejoin joins the given tables under the global attribute order
// gao, building one sorted-array trie per table (attributes ordered by gao
// position, so every Open sees a prefix binding) and driving
// GenericJoinStream over the resulting TrieAtoms — Veldhuizen's Leapfrog
// Triejoin in its original setting, and the independent backend TableAtom
// is tested against. Like every streaming executor here, emit receives a
// transient tuple that is overwritten after emit returns; clone it to
// retain it.
func LeapfrogTriejoin(tables []*relational.Table, gao []string, emit func(relational.Tuple) bool) (*GenericJoinStats, error) {
	if len(tables) == 0 {
		return nil, fmt.Errorf("wcoj: no tables")
	}
	pos, err := orderPositions(gao)
	if err != nil {
		return nil, err
	}
	atoms := make([]Atom, len(tables))
	for i, t := range tables {
		attrs := append([]string(nil), t.Schema().Attrs()...)
		for _, a := range attrs {
			if _, ok := pos[a]; !ok {
				return nil, fmt.Errorf("wcoj: table %s attribute %q missing from attribute order", t.Name(), a)
			}
		}
		sort.Slice(attrs, func(x, y int) bool { return pos[attrs[x]] < pos[attrs[y]] })
		tr, err := NewTrie(t, attrs)
		if err != nil {
			return nil, err
		}
		atoms[i] = NewTrieAtom(t.Name(), tr)
	}
	return GenericJoinStream(atoms, gao, emit)
}
