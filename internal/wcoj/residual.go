package wcoj

import (
	"fmt"
	"strings"

	"repro/internal/relational"
)

// Residual enumeration is the hybrid executor's wholesale tail: when every
// attribute still to be expanded is covered by exactly one atom — the
// materialized intermediate of a binary subplan — expanding them one
// leapfrog level at a time only re-discovers, value by value, tuples the
// intermediate already holds. The atom's sorted projection for the shape
// (targets = the tail, in order; bound = every other column) already holds,
// per bound key, the sorted distinct tail tuples as one flat run, so the
// runner emits the whole tail of each binding with a single binary search
// instead of a cursor open per attribute per value. Enumeration order is
// lexicographic in the requested target order — exactly the order the
// attribute-at-a-time recursion would have produced — so results, and
// their serial order, are unchanged. A one-attribute tail is the very
// index Open uses.

// ResidualHandle is a resolved (atom, target attributes) pair, created once
// per run depth of one worker; it resolves the index at its first Run, so
// the per-binding lookup does no name resolution and no cache lookup. The
// handle assumes every non-target attribute of the atom is bound in the
// bindings it is asked about — the tail invariant: attributes before the
// tail are bound, attributes in the tail are targets.
type ResidualHandle struct {
	a      *TableAtom
	shape  indexShape
	bnames []string    // the bound (non-target) attributes, in column order
	ix     *tableIndex // resolved by the first Run
}

// ResidualHandle resolves targets against the atom's schema. It errors on
// unknown attributes and on tables wider than the 64-column bitmask limit.
func (a *TableAtom) ResidualHandle(targets []string) (*ResidualHandle, error) {
	if len(a.attrs) > 64 {
		return nil, fmt.Errorf("wcoj: atom %s has %d columns; TableAtom supports at most 64", a.Name(), len(a.attrs))
	}
	var tmask uint64
	for _, name := range targets {
		c, ok := a.table.Schema().Pos(name)
		if !ok {
			return nil, fmt.Errorf("wcoj: atom %s has no attribute %q", a.Name(), name)
		}
		tmask |= 1 << uint(c)
	}
	h := &ResidualHandle{a: a, shape: indexShape{targets: strings.Join(targets, "\x00")}}
	for i, name := range a.attrs {
		if tmask&(1<<uint(i)) == 0 {
			h.bnames = append(h.bnames, name)
			h.shape.mask |= 1 << uint(i)
		}
	}
	return h, nil
}

// Run returns the sorted distinct residual tuples matching b, flattened
// with stride len(targets). The slice aliases the index's immutable
// backing array; callers must not mutate it. A nil slice means no row
// matches.
func (h *ResidualHandle) Run(b Binding) ([]relational.Value, error) {
	if h.ix == nil {
		ix, err := h.a.index(h.shape, BuildControlOf(b))
		if err != nil {
			return nil, err
		}
		h.ix = ix
	}
	var buf [8]relational.Value
	key := buf[:0]
	for _, name := range h.bnames {
		v, _ := b.Get(name)
		key = append(key, v)
	}
	return h.ix.run(key), nil
}
