package wcoj

import (
	"math/bits"

	"repro/internal/cachehook"
	"repro/internal/faultpoint"
	"repro/internal/relational"
)

// A run compiles every TableAtom against its attribute order once, instead
// of letting Atom.Open rediscover the same facts on every partial tuple.
// Under one order the shape an atom opens at a depth is fixed — its target
// column and the columns the prefix binds — so the run fixes, per (atom,
// depth): the index shape, the binding positions of the bound columns, and
// a link to the atom's step at its previous depth. The sorted projection
// itself is resolved at the step's first open in the run and held until
// the run ends.
//
// Descent is the trie-cursor move of Leapfrog Triejoin: the level-(i+1)
// run is reached from the level-i cursor's position, not by a search. The
// previous step's index holds, flattened in its vals array, every distinct
// (previous bound key, previous target) pair in sorted order; when the
// previous target is the highest-numbered column bound here, those pairs
// are exactly this step's bound keys, in this step's group order. While
// the previous cursor is open in this run it sits on the value the prefix
// bound (the recursion only descends from inside its intersection), so
// this step's group is simply that cursor's offset in its index: base +
// pos. Otherwise — a morsel sub-task entering below its prefix, with no
// open parent cursor, or a table enumerated out of column order — the
// open is one binary search over the group keys, on a key read by
// position from the binding.

// maxStepKey is the widest bound key a compiled step reads — the eight
// values Open keeps on the stack. A table with more than maxStepKey+1
// columns is not compiled: it opens through Atom.Open at every depth.
const maxStepKey = 8

// tableStep is one TableAtom compiled against a run's order at one depth,
// with the cursor it owns there. A step left zero (a == nil) opens its
// atom through Atom.Open.
type tableStep struct {
	a *TableAtom
	// mask is the bound-column set of the step's index shape, whose
	// target is column tcol.
	mask uint64
	// bpos[:nb] are the binding positions of the bound columns, in column
	// order.
	bpos [maxStepKey]int32
	// prev is the atom's step at its previous depth.
	prev *tableStep
	// ix is resolved at the step's first open and held for the run.
	ix *tableIndex
	it valuesIter
	// base is it.vals's offset in ix.vals.
	base     int32
	tcol, nb int8
	// descend is set when prev's target is the highest of this step's
	// bound columns: an open prev cursor's position is then this step's
	// group.
	descend bool
}

// tableAtomOf returns the TableAtom whose Open at serves, or nil.
func tableAtomOf(at Atom) *TableAtom {
	switch a := at.(type) {
	case *TableAtom:
		return a
	case *MaterializedAtom:
		return a.TableAtom
	}
	return nil
}

// compilable returns the TableAtom a run compiles at in place of its Open,
// or nil: a table atom of at most maxStepKey+1 columns.
func compilable(at Atom) *TableAtom {
	if a := tableAtomOf(at); a != nil && len(a.attrs) <= maxStepKey+1 {
		return a
	}
	return nil
}

// compileSteps fills the run's steps for the table atoms of its groups.
// Each atom is compiled whole at its first depth, from one order lookup
// per column.
func (r *streamRun) compileSteps(pos map[string]int) {
	for d := range r.lv {
		k := r.lv[d].soff
		for t := r.lv[d].tables; t != 0; t &= t - 1 {
			if r.steps[k].a == nil {
				at := r.byAttr[d][bits.TrailingZeros64(t)]
				r.compileAtom(at, tableAtomOf(at), pos)
			}
			k++
		}
	}
}

// compileAtom fills the steps of at, which wraps a, at every depth of one
// of its columns. The step of column i at depth p[i] binds the columns
// whose depth is lower; its prev is the step of the deepest of them. An
// atom one of whose slots has no step is left to Atom.Open.
func (r *streamRun) compileAtom(at Atom, a *TableAtom, pos map[string]int) {
	var p [maxStepKey + 1]int
	var steps [maxStepKey + 1]*tableStep
	for i, name := range a.attrs {
		p[i] = pos[name]
		// The first free step of at at that depth: an atom listed twice in
		// one join compiles into two chains.
		lv := &r.lv[p[i]]
		k := lv.soff
		for t := lv.tables; t != 0; t &= t - 1 {
			if s := &r.steps[k]; s.a == nil && r.byAttr[p[i]][bits.TrailingZeros64(t)] == at {
				steps[i] = s
				break
			}
			k++
		}
		if steps[i] == nil {
			return
		}
	}
	for i, s := range steps[:len(a.attrs)] {
		s.a = a
		s.tcol = int8(i)
		s.it.owned = true
		hi, prev := -1, -1
		for k := range a.attrs {
			if p[k] < p[i] {
				s.mask |= 1 << uint(k)
				s.bpos[s.nb] = int32(p[k])
				s.nb++
				hi = k
				if prev < 0 || p[k] > p[prev] {
					prev = k
				}
			}
		}
		if prev >= 0 {
			s.prev = steps[prev]
			s.descend = prev == hi
		}
	}
}

// open positions the step's cursor on the run of its target values under
// binding, resolving the index on the run's first open of the step.
func (s *tableStep) open(binding relational.Tuple, ctl cachehook.BuildControl) error {
	if err := faultpoint.Inject("wcoj.table.open"); err != nil {
		return err
	}
	ix := s.ix
	if ix == nil {
		var err error
		shape := indexShape{targets: s.a.attrs[s.tcol], mask: s.mask}
		if ix, err = s.a.index(shape, ctl); err != nil {
			return err
		}
		s.ix = ix
	}
	var g int
	if p := s.prev; s.descend && p.it.vals != nil {
		g = int(p.base) + p.it.pos
	} else {
		var buf [maxStepKey]relational.Value
		key := buf[:s.nb]
		for i, bp := range s.bpos[:s.nb] {
			key[i] = binding[bp]
		}
		if g = ix.group(key); g < 0 {
			s.base, s.it.vals, s.it.pos = 0, ix.vals[:0], 0
			return nil
		}
	}
	lo, hi := ix.off[g], ix.off[g+1]
	s.base, s.it.vals, s.it.pos = lo, ix.vals[lo:hi], 0
	return nil
}
