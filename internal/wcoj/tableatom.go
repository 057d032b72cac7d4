package wcoj

import (
	"fmt"
	"sort"

	"repro/internal/cachehook"
	"repro/internal/faultpoint"
	"repro/internal/relational"
)

// TableAtom adapts a physical relational table to the Atom interface. For
// each (target attribute, set of bound attributes) shape it lazily builds a
// sorted-column index: bound-prefix keys are hashed with the engine-wide
// FNV-1a helpers (relational.HashKey's scheme) into groups, and each
// group's sorted distinct target values live as one run inside a single
// flat array. Open positions a pooled cursor over the matching run, so the
// hot path performs no per-call allocation — the hash-trie formulation of
// Generic Join with integer keys instead of encoded strings. The shapes
// live in a cachehook.Slots (see that package for the build, accounting
// and eviction protocol), so the parallel executor's workers and concurrent
// queries borrowing the atom from a shared catalog never repeat or block on
// each other's builds, and evicting a shape mid-join is safe: live cursors
// hold slices into the index's immutable arrays.
type TableAtom struct {
	table *relational.Table
	attrs []string
	// indexes is keyed by target column and bound-column bitmask.
	indexes cachehook.Slots[indexShape, *colIndex]
	// resid holds the multi-column residual indexes of the hybrid tail
	// fast path (see residual.go).
	resid cachehook.Slots[residKey, *colIndex]
}

// indexShape identifies one lazily built index: the target column and the
// bitmask of bound columns (bit i = column i of the table).
type indexShape struct {
	target int
	mask   uint64
}

// colIndex maps bound-prefix keys to runs of sorted distinct values of one
// target column. All runs share one backing array; group g's values are
// vals[off[g]:off[g+1]].
type colIndex struct {
	buckets map[uint64][]int32 // FNV-1a key hash -> group ids (collision chain)
	keys    []relational.Value // group bound keys, stride = stride
	stride  int
	vals    []relational.Value
	off     []int32
}

// run returns group g's sorted distinct target values.
func (ix *colIndex) run(g int32) []relational.Value {
	return ix.vals[ix.off[g]:ix.off[g+1]]
}

// NewTableAtom wraps t.
func NewTableAtom(t *relational.Table) *TableAtom {
	a := &TableAtom{table: t, attrs: t.Schema().Attrs()}
	a.indexes.Fault = "wcoj.table.index.build"
	a.resid.Fault = "wcoj.table.resid.build"
	return a
}

// SetCacheObserver attaches the observer notified of index builds and
// reuses (the shared-catalog integration). It must be called before the
// atom is handed to any query — typically right after NewTableAtom — and
// at most once; it is not synchronized against concurrent Opens.
func (a *TableAtom) SetCacheObserver(o cachehook.Observer) {
	a.indexes.Observer = o
	a.resid.Observer = o
}

// Name returns the underlying table's name.
func (a *TableAtom) Name() string { return a.table.Name() }

// Attrs returns the underlying table's attributes.
func (a *TableAtom) Attrs() []string { return a.attrs }

// Table returns the wrapped table.
func (a *TableAtom) Table() *relational.Table { return a.table }

// Open returns a cursor over the sorted distinct values of attr among rows
// matching the bound attributes.
func (a *TableAtom) Open(attr string, b Binding) (AtomIterator, error) {
	target, ok := a.table.Schema().Pos(attr)
	if !ok {
		return nil, fmt.Errorf("wcoj: atom %s has no attribute %q", a.Name(), attr)
	}
	if len(a.attrs) > 64 {
		// The bound-column bitmask identifies index shapes by column bit;
		// past 64 columns shapes would collide (the seed silently truncated
		// at 32), so refuse loudly.
		return nil, fmt.Errorf("wcoj: atom %s has %d columns; TableAtom supports at most 64", a.Name(), len(a.attrs))
	}
	if err := faultpoint.Inject("wcoj.table.open"); err != nil {
		return nil, err
	}
	// Hash the bound values in column order without materializing the key.
	var mask uint64
	h := relational.HashSeed
	for i, name := range a.attrs {
		if i == target {
			continue
		}
		if v, bound := b.Get(name); bound {
			mask |= 1 << uint(i)
			h = relational.HashValue(h, v)
		}
	}
	ix, err := a.index(target, mask, BuildControlOf(b))
	if err != nil {
		return nil, err
	}
	for _, g := range ix.buckets[h] {
		if ix.groupMatches(g, a.attrs, target, mask, b) {
			return openValues(ix.run(g)), nil
		}
	}
	return openValues(nil), nil
}

// groupMatches verifies (against hash collisions) that group g's stored key
// equals the bound values, walking bound columns in column order.
func (ix *colIndex) groupMatches(g int32, attrs []string, target int, mask uint64, b Binding) bool {
	if ix.stride == 0 {
		return true
	}
	key := ix.keys[int(g)*ix.stride : (int(g)+1)*ix.stride]
	j := 0
	for i, name := range attrs {
		if i == target || mask&(1<<uint(i)) == 0 {
			continue
		}
		v, _ := b.Get(name)
		if key[j] != v {
			return false
		}
		j++
	}
	return true
}

// TableIndexInfo describes the sorted-column indexes a TableAtom has built
// so far — the observability hook for long-lived serving processes, whose
// lazily built indexes would otherwise accumulate invisibly.
type TableIndexInfo struct {
	// Indexes is the number of (target, bound-set) shapes built.
	Indexes int
	// Groups is the total number of bound-prefix key groups across them.
	Groups int
	// ApproxBytes estimates the heap held by the indexes: the flat value
	// and key arrays, offsets, and hash buckets. It is an estimate (map
	// overhead is approximated), intended for capacity planning and
	// eviction decisions, not exact accounting.
	ApproxBytes int64
}

// IndexInfo reports the lazily built indexes currently cached on the atom.
// Safe to call concurrently with Open; entries whose build is still in
// flight are not counted.
func (a *TableAtom) IndexInfo() TableIndexInfo {
	var info TableIndexInfo
	add := func(ix *colIndex, bytes int64) {
		info.Indexes++
		info.Groups += len(ix.off) - 1
		info.ApproxBytes += bytes
	}
	a.indexes.Each(func(_ indexShape, ix *colIndex, bytes int64) { add(ix, bytes) })
	a.resid.Each(func(_ residKey, ix *colIndex, bytes int64) { add(ix, bytes) })
	return info
}

// approxBytes estimates one index's heap footprint.
func (ix *colIndex) approxBytes() int64 {
	const (
		valueSize = 8 // relational.Value
		int32Size = 4
		// Per-bucket map overhead: key, slice header, and amortized
		// bucket bookkeeping — a rough constant.
		bucketOverhead = 48
	)
	b := int64(len(ix.vals))*valueSize +
		int64(len(ix.keys))*valueSize +
		int64(len(ix.off))*int32Size +
		int64(len(ix.buckets))*bucketOverhead
	for _, chain := range ix.buckets {
		b += int64(len(chain)) * int32Size
	}
	return b
}

// index returns (building on first use) the sorted-column index for the
// given target column and bound-column mask; the build polls ctl.Check
// every colBuildCheckRows rows.
func (a *TableAtom) index(target int, mask uint64, ctl cachehook.BuildControl) (*colIndex, error) {
	return a.indexes.Get(nil, indexShape{target: target, mask: mask}, ctl, cachehook.Spec[*colIndex]{
		Label: func() string { return fmt.Sprintf("table[%s t=%d m=%#x]", a.table.Name(), target, mask) },
		Build: func(check func() bool) (*colIndex, error) {
			var boundCols []int
			for i := range a.attrs {
				if i != target && mask&(1<<uint(i)) != 0 {
					boundCols = append(boundCols, i)
				}
			}
			return buildColIndex(a.table, target, boundCols, check)
		},
		Bytes: (*colIndex).approxBytes,
	})
}

// colBuildCheckRows is how many rows a column-index build processes
// between cancellation polls — the same order of magnitude as the
// executor's checkInterval, so a cancelled cold run returns within one
// backstop budget instead of after the whole build.
const colBuildCheckRows = 1024

// buildColIndex groups the table's rows by the bound columns' values and
// sorts/dedups each group's target values into one flat array. check,
// when non-nil, is polled every colBuildCheckRows rows; a true return
// abandons the build with cachehook.ErrBuildCancelled.
func buildColIndex(t *relational.Table, target int, boundCols []int, check func() bool) (*colIndex, error) {
	ix := &colIndex{
		buckets: make(map[uint64][]int32),
		stride:  len(boundCols),
	}
	n := t.Len()
	groupVals := make([][]relational.Value, 0, 16)
	key := make([]relational.Value, len(boundCols))
	for r := 0; r < n; r++ {
		if check != nil && r%colBuildCheckRows == 0 && check() {
			return nil, cachehook.ErrBuildCancelled
		}
		for i, c := range boundCols {
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
		groupVals[g] = append(groupVals[g], t.Value(r, target))
	}
	ix.off = make([]int32, 1, len(groupVals)+1)
	for _, vals := range groupVals {
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		w := 0
		for i, v := range vals {
			if i == 0 || v != vals[w-1] {
				vals[w] = v
				w++
			}
		}
		ix.vals = append(ix.vals, vals[:w]...)
		ix.off = append(ix.off, int32(len(ix.vals)))
	}
	return ix, nil
}

func equalKey(a, b []relational.Value) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// SetAtom is a constant unary atom over a fixed value set; useful for
// injecting selections and in tests.
type SetAtom struct {
	name string
	attr string
	set  *relational.ValueSet
}

// NewSetAtom builds a unary atom named name over attribute attr holding
// exactly vals.
func NewSetAtom(name, attr string, vals []relational.Value) *SetAtom {
	return &SetAtom{name: name, attr: attr, set: relational.NewValueSet(vals)}
}

// Name implements Atom.
func (s *SetAtom) Name() string { return s.name }

// Attrs implements Atom.
func (s *SetAtom) Attrs() []string { return []string{s.attr} }

// Open implements Atom.
func (s *SetAtom) Open(attr string, _ Binding) (AtomIterator, error) {
	if attr != s.attr {
		return nil, fmt.Errorf("wcoj: atom %s has no attribute %q", s.name, attr)
	}
	return OpenValueSet(s.set), nil
}
