package wcoj

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/cachehook"
	"repro/internal/faultpoint"
	"repro/internal/relational"
)

// TableAtom adapts a physical relational table to the Atom interface. For
// each (target attributes, bound-column set) shape it lazily builds one
// sorted projection, a tableIndex: the rows projected onto the bound
// columns and then the targets, sorted and deduplicated once, so every
// bound key owns one contiguous run of distinct target tuples, found by a
// binary search over the distinct keys. Open is the one-target shape and
// positions a pooled cursor over its run, so the hot path performs no
// per-call allocation; the hybrid tail's ResidualHandle (residual.go)
// reads multi-target shapes of the same index. The shapes live in one
// cachehook.Slots (see that package for the build, accounting and eviction
// protocol), so the parallel executor's workers and concurrent queries
// borrowing the atom from a shared catalog never repeat or block on each
// other's builds, and evicting a shape mid-join is safe: live cursors hold
// slices into the index's immutable arrays.
//
// The join executors do not call Open (on tables of up to nine columns):
// each run compiles the atom against its attribute order (compiled.go) into
// one step per depth, which resolves the same shape's index through the
// same Slots.Get at its first open in the run, and then opens by an offset
// read from the step one depth up, or by the same single search Open does.
// Open remains the path of every other caller and the oracle the compiled
// steps are tested against. A run holds each index it resolved until it
// ends: an index the catalog evicts mid-run stays referenced (and its
// memory live) for the rest of that run — a per-run pin — and the next run
// rebuilds it.
type TableAtom struct {
	table   *relational.Table
	attrs   []string
	indexes cachehook.Slots[indexShape, *tableIndex]
}

// indexShape identifies one lazily built index: the target attributes in
// enumeration order, NUL-separated (their order fixes the sort), and the
// bitmask of bound columns (bit i = column i of the table).
type indexShape struct {
	targets string
	mask    uint64
}

// tableIndex is the table's rows projected onto the bound columns (column
// order) and then the target columns (target order), sorted and
// deduplicated. Group g's bound key is keys[g*nb:(g+1)*nb], ascending in
// g; its distinct target tuples are vals[off[g]*nt:off[g+1]*nt], ascending.
type tableIndex struct {
	keys   []relational.Value
	vals   []relational.Value
	off    []int32
	nb, nt int
}

// run returns the target tuples of the group whose bound key equals key,
// or nil when no row matches.
func (ix *tableIndex) run(key []relational.Value) []relational.Value {
	g := ix.group(key)
	if g < 0 {
		return nil
	}
	return ix.vals[int(ix.off[g])*ix.nt : int(ix.off[g+1])*ix.nt]
}

// group returns the number of the group whose bound key equals key, or -1
// when no row matches.
func (ix *tableIndex) group(key []relational.Value) int {
	nb, n := ix.nb, len(ix.off)-1
	if n == 0 {
		return -1
	}
	// g ends on the last group whose key is <= key, or on group 0. The step
	// adds half&-le instead of branching on le: the compiler keeps a
	// loop-carried conditional add as a branch, which a search over
	// thousands of groups mispredicts every other step. For one-column keys
	// le is then set without a branch too.
	g := 0
	for n > 1 {
		half := n >> 1
		le := 0
		if nb == 1 {
			if ix.keys[g+half] <= key[0] {
				le = 1
			}
		} else if compareKeys(ix.keys[(g+half)*nb:(g+half+1)*nb], key) <= 0 {
			le = 1
		}
		g += half & -le
		n -= half
	}
	if compareKeys(ix.keys[g*nb:g*nb+nb], key) != 0 {
		return -1
	}
	return g
}

// bytes is the index's heap footprint: its three arrays.
func (ix *tableIndex) bytes() int64 {
	return 8*int64(len(ix.keys)+len(ix.vals)) + 4*int64(len(ix.off))
}

// compareKeys orders two equal-length tuples lexicographically.
func compareKeys(a, b []relational.Value) int {
	for i, v := range a {
		if w := b[i]; v != w {
			if v < w {
				return -1
			}
			return 1
		}
	}
	return 0
}

// NewTableAtom wraps t.
func NewTableAtom(t *relational.Table) *TableAtom {
	a := &TableAtom{table: t, attrs: t.Schema().Attrs()}
	a.indexes.Fault = "wcoj.table.index.build"
	return a
}

// SetCacheObserver attaches the observer notified of index builds and
// reuses (the shared-catalog integration). It must be called before the
// atom is handed to any query — typically right after NewTableAtom — and
// at most once; it is not synchronized against concurrent Opens.
func (a *TableAtom) SetCacheObserver(o cachehook.Observer) {
	a.indexes.Observer = o
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
	// Gather the bound values in column order; keys of up to eight columns
	// stay on the stack.
	var buf [8]relational.Value
	key := buf[:0]
	var mask uint64
	for i, name := range a.attrs {
		if i == target {
			continue
		}
		if v, bound := b.Get(name); bound {
			mask |= 1 << uint(i)
			key = append(key, v)
		}
	}
	ix, err := a.index(indexShape{targets: attr, mask: mask}, BuildControlOf(b))
	if err != nil {
		return nil, err
	}
	return openValues(ix.run(key)), nil
}

// TableIndexInfo describes the sorted projections a TableAtom has built so
// far — the observability hook for long-lived serving processes, whose
// lazily built indexes would otherwise accumulate invisibly.
type TableIndexInfo struct {
	// Indexes is the number of (targets, bound-set) shapes built.
	Indexes int
	// Groups is the total number of distinct bound keys across them.
	Groups int
	// ApproxBytes is the exact size of the indexes' key, value and offset
	// arrays (slice and struct headers are not counted).
	ApproxBytes int64
}

// IndexInfo reports the lazily built indexes currently cached on the atom.
// Safe to call concurrently with Open; entries whose build is still in
// flight are not counted.
func (a *TableAtom) IndexInfo() TableIndexInfo {
	var info TableIndexInfo
	a.indexes.Each(func(_ indexShape, ix *tableIndex, bytes int64) {
		info.Indexes++
		info.Groups += len(ix.off) - 1
		info.ApproxBytes += bytes
	})
	return info
}

// index returns (building on first use) the sorted projection for shape;
// the build polls ctl.Check every colBuildCheckRows rows.
func (a *TableAtom) index(shape indexShape, ctl cachehook.BuildControl) (*tableIndex, error) {
	return a.indexes.Get(shape, ctl, cachehook.Spec[*tableIndex]{
		Label: func() string {
			return fmt.Sprintf("table[%s t=%s m=%#x]", a.table.Name(), strings.ReplaceAll(shape.targets, "\x00", ","), shape.mask)
		},
		Build: func(check func() bool) (*tableIndex, error) {
			var bcols, tcols []int
			for i := range a.attrs {
				if shape.mask&(1<<uint(i)) != 0 {
					bcols = append(bcols, i)
				}
			}
			for _, name := range strings.Split(shape.targets, "\x00") {
				c, _ := a.table.Schema().Pos(name)
				tcols = append(tcols, c)
			}
			return buildTableIndex(a.table, bcols, tcols, check)
		},
		Bytes: (*tableIndex).bytes,
	})
}

// colBuildCheckRows is how many rows an index build processes between
// cancellation polls — the same order of magnitude as the executor's
// checkInterval, so a cancelled cold run returns within one backstop
// budget instead of after the whole build.
const colBuildCheckRows = 1024

// buildTableIndex projects every row onto bcols then tcols, sorts the
// projections, drops duplicates and cuts the result into one group per
// distinct bound key. check, when non-nil, is polled every
// colBuildCheckRows rows; a true return abandons the build with
// cachehook.ErrBuildCancelled.
func buildTableIndex(t *relational.Table, bcols, tcols []int, check func() bool) (*tableIndex, error) {
	nb, nt := len(bcols), len(tcols)
	w, n := nb+nt, t.Len()
	rows := make([]relational.Value, 0, n*w)
	perm := make([]int32, n)
	for r := range perm {
		if check != nil && r%colBuildCheckRows == 0 && check() {
			return nil, cachehook.ErrBuildCancelled
		}
		for _, c := range bcols {
			rows = append(rows, t.Value(r, c))
		}
		for _, c := range tcols {
			rows = append(rows, t.Value(r, c))
		}
		perm[r] = int32(r)
	}
	row := func(p int32) []relational.Value { return rows[int(p)*w : int(p)*w+w] }
	slices.SortFunc(perm, func(p, q int32) int { return compareKeys(row(p), row(q)) })
	perm = slices.CompactFunc(perm, func(p, q int32) bool { return compareKeys(row(p), row(q)) == 0 })
	newGroup := func(i int) bool { return i == 0 || compareKeys(row(perm[i-1])[:nb], row(perm[i])[:nb]) != 0 }
	groups := 0
	for i := range perm {
		if newGroup(i) {
			groups++
		}
	}
	ix := &tableIndex{
		keys: make([]relational.Value, 0, groups*nb),
		vals: make([]relational.Value, 0, len(perm)*nt),
		off:  make([]int32, 0, groups+1),
		nb:   nb,
		nt:   nt,
	}
	for i, p := range perm {
		if newGroup(i) {
			ix.keys = append(ix.keys, row(p)[:nb]...)
			ix.off = append(ix.off, int32(i))
		}
		ix.vals = append(ix.vals, row(p)[nb:]...)
	}
	ix.off = append(ix.off, int32(len(perm)))
	return ix, nil
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
