package wcoj

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cachehook"
	"repro/internal/relational"
)

// Residual enumeration is the hybrid executor's wholesale tail: when every
// attribute still to be expanded is covered by exactly one atom — the
// materialized intermediate of a binary subplan — expanding them one
// leapfrog level at a time only re-discovers, value by value, tuples the
// intermediate already holds. A residual index groups the table's rows by
// the bound columns and stores, per group, the sorted distinct residual
// tuples over the remaining columns as one flat run, so the runner emits
// the whole tail of each binding with a single hash lookup instead of a
// cursor open per attribute per value. Enumeration order is lexicographic
// in the requested target order — exactly the order the attribute-at-a-time
// recursion would have produced — so results, and their serial order, are
// unchanged.

// residKey identifies one residual index: the target attributes in
// enumeration order (their order fixes the sort, so it is part of the key)
// plus the bound-column bitmask.
type residKey struct {
	targets string
	mask    uint64
}

// ResidualHandle is a resolved (atom, target attributes) pair, created once
// per run depth so the per-binding lookup does no name resolution. The
// handle assumes every non-target attribute of the atom is bound in the
// bindings it is asked about — the tail invariant: attributes before the
// tail are bound, attributes in the tail are targets.
type ResidualHandle struct {
	a      *TableAtom
	key    residKey
	tcols  []int    // target columns, in enumeration order
	bcols  []int    // bound (non-target) columns, in column order
	bnames []string // attribute names of bcols, same order
}

// ResidualHandle resolves targets against the atom's schema. It errors on
// unknown attributes and on tables wider than the 64-column bitmask limit.
func (a *TableAtom) ResidualHandle(targets []string) (*ResidualHandle, error) {
	if len(a.attrs) > 64 {
		return nil, fmt.Errorf("wcoj: atom %s has %d columns; TableAtom supports at most 64", a.Name(), len(a.attrs))
	}
	h := &ResidualHandle{a: a, tcols: make([]int, 0, len(targets))}
	var tmask uint64
	for _, name := range targets {
		c, ok := a.table.Schema().Pos(name)
		if !ok {
			return nil, fmt.Errorf("wcoj: atom %s has no attribute %q", a.Name(), name)
		}
		h.tcols = append(h.tcols, c)
		tmask |= 1 << uint(c)
	}
	for i, name := range a.attrs {
		if tmask&(1<<uint(i)) == 0 {
			h.bcols = append(h.bcols, i)
			h.bnames = append(h.bnames, name)
			h.key.mask |= 1 << uint(i)
		}
	}
	h.key.targets = strings.Join(targets, "\x00")
	return h, nil
}

// Run returns the sorted distinct residual tuples matching b, flattened
// with stride len(targets). The slice aliases the index's immutable
// backing array; callers must not mutate it. A nil slice means no row
// matches.
func (h *ResidualHandle) Run(b Binding) ([]relational.Value, error) {
	ix, err := h.index(BuildControlOf(b))
	if err != nil {
		return nil, err
	}
	hash := relational.HashSeed
	for _, name := range h.bnames {
		v, _ := b.Get(name)
		hash = relational.HashValue(hash, v)
	}
	for _, g := range ix.buckets[hash] {
		if h.groupMatches(ix, g, b) {
			return ix.run(g), nil
		}
	}
	return nil, nil
}

// groupMatches verifies (against hash collisions) that group g's stored
// key equals the bound values.
func (h *ResidualHandle) groupMatches(ix *colIndex, g int32, b Binding) bool {
	if ix.stride == 0 {
		return true
	}
	key := ix.keys[int(g)*ix.stride : (int(g)+1)*ix.stride]
	for j, name := range h.bnames {
		v, _ := b.Get(name)
		if key[j] != v {
			return false
		}
	}
	return true
}

// index returns (building on first use) the residual index for the
// handle's shape, the multi-column counterpart of TableAtom.index.
func (h *ResidualHandle) index(ctl cachehook.BuildControl) (*colIndex, error) {
	return h.a.resid.Get(nil, h.key, ctl, cachehook.Spec[*colIndex]{
		Label: func() string {
			return fmt.Sprintf("resid[%s t=%v m=%#x]", h.a.table.Name(), h.tcols, h.key.mask)
		},
		Build: func(check func() bool) (*colIndex, error) {
			return buildResidIndex(h.a.table, h.tcols, h.bcols, check)
		},
		Bytes: (*colIndex).approxBytes,
	})
}

// buildResidIndex groups the table's rows by the bound columns and
// sorts/dedups each group's residual tuples (the target columns, in target
// order) into one flat array with stride len(tcols); off is kept in value
// units so colIndex.run slices it directly. check, when non-nil, is polled
// every colBuildCheckRows rows like buildColIndex.
func buildResidIndex(t *relational.Table, tcols, bcols []int, check func() bool) (*colIndex, error) {
	ix := &colIndex{
		buckets: make(map[uint64][]int32),
		stride:  len(bcols),
	}
	k := len(tcols)
	n := t.Len()
	groupVals := make([][]relational.Value, 0, 16)
	key := make([]relational.Value, len(bcols))
	for r := 0; r < n; r++ {
		if check != nil && r%colBuildCheckRows == 0 && check() {
			return nil, cachehook.ErrBuildCancelled
		}
		for i, c := range bcols {
			key[i] = t.Value(r, c)
		}
		h := relational.HashKey(key)
		g := int32(-1)
		for _, cand := range ix.buckets[h] {
			if equalKey(ix.keys[int(cand)*ix.stride:(int(cand)+1)*ix.stride], key) {
				g = cand
				break
			}
		}
		if g < 0 {
			g = int32(len(groupVals))
			ix.buckets[h] = append(ix.buckets[h], g)
			ix.keys = append(ix.keys, key...)
			groupVals = append(groupVals, nil)
		}
		for _, c := range tcols {
			groupVals[g] = append(groupVals[g], t.Value(r, c))
		}
	}
	ix.off = make([]int32, 1, len(groupVals)+1)
	for _, vals := range groupVals {
		sort.Sort(&tupleSorter{vals: vals, k: k})
		w := 0
		for r := 0; r < len(vals); r += k {
			if w == 0 || !equalKey(vals[w-k:w], vals[r:r+k]) {
				copy(vals[w:w+k], vals[r:r+k])
				w += k
			}
		}
		ix.vals = append(ix.vals, vals[:w]...)
		ix.off = append(ix.off, int32(len(ix.vals)))
	}
	return ix, nil
}

// tupleSorter sorts a flat tuple run of stride k lexicographically.
type tupleSorter struct {
	vals []relational.Value
	k    int
	tmp  []relational.Value
}

func (s *tupleSorter) Len() int { return len(s.vals) / s.k }

func (s *tupleSorter) Less(i, j int) bool {
	bi, bj := i*s.k, j*s.k
	for c := 0; c < s.k; c++ {
		vi, vj := s.vals[bi+c], s.vals[bj+c]
		if vi != vj {
			return vi < vj
		}
	}
	return false
}

func (s *tupleSorter) Swap(i, j int) {
	if s.tmp == nil {
		s.tmp = make([]relational.Value, s.k)
	}
	bi, bj := i*s.k, j*s.k
	copy(s.tmp, s.vals[bi:bi+s.k])
	copy(s.vals[bi:bi+s.k], s.vals[bj:bj+s.k])
	copy(s.vals[bj:bj+s.k], s.tmp)
}
