package wcoj

import (
	"slices"
	"testing"

	"repro/internal/cachehook"
	"repro/internal/relational"
)

// dropObserver is a cache manager that accounts nothing and remembers the
// drop callbacks it was handed, so a test can evict on demand.
type dropObserver struct{ drops []func() }

type nopTicket struct{}

func (nopTicket) Touch() {}

func (o *dropObserver) Built(_ string, _ int64, drop func()) cachehook.Ticket {
	o.drops = append(o.drops, drop)
	return nopTicket{}
}

// TestTableAtomIndexLifecycle exercises the observability surface for the
// lazily built sorted-column indexes: the first Open builds a shape,
// IndexInfo reports it, a repeated Open reuses it, an eviction releases it,
// and the atom keeps answering correctly after the drop.
func TestTableAtomIndexLifecycle(t *testing.T) {
	tb := table(t, "R", []string{"a", "b"},
		[]int64{1, 10}, []int64{1, 20}, []int64{2, 10}, []int64{3, 30})
	a := NewTableAtom(tb)
	obs := &dropObserver{}
	a.SetCacheObserver(obs)

	if info := a.IndexInfo(); info.Indexes != 0 || info.ApproxBytes != 0 {
		t.Fatalf("fresh atom has indexes: %+v", info)
	}

	read := func() []relational.Value {
		t.Helper()
		it, err := a.Open("b", bindingOf(t, map[string]relational.Value{"a": 1}))
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		var got []relational.Value
		for !it.AtEnd() {
			got = append(got, it.Key())
			it.Next()
		}
		return got
	}
	if got := read(); len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Fatalf("b|a=1 = %v", got)
	}
	info := a.IndexInfo()
	if info.Indexes != 1 {
		t.Fatalf("after first open: %+v", info)
	}
	if info.Groups != 3 { // one group per distinct a-value
		t.Errorf("groups = %d want 3", info.Groups)
	}
	if info.ApproxBytes <= 0 {
		t.Errorf("approx bytes = %d", info.ApproxBytes)
	}

	// A second query on the same shape reuses it (count stays 1).
	if got := read(); len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Fatalf("b|a=1 = %v", got)
	}
	if got := a.IndexInfo().Indexes; got != 1 || len(obs.drops) != 1 {
		t.Errorf("open built a redundant index: %d indexes, %d builds", got, len(obs.drops))
	}

	obs.drops[0]()
	if info := a.IndexInfo(); info.Indexes != 0 || info.ApproxBytes != 0 {
		t.Fatalf("after drop: %+v", info)
	}
	if got := read(); len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Fatalf("post-drop rebuild = %v", got)
	}
	if got := a.IndexInfo().Indexes; got != 1 {
		t.Errorf("post-drop query did not rebuild: %d", got)
	}
}

// TestTableAtomOneSlotPerShape pins that Open and a one-attribute residual
// tail are one shape: Open("c") under a, b bound and the residual run of
// [c] under the same binding read the same run of the same index.
func TestTableAtomOneSlotPerShape(t *testing.T) {
	tb := table(t, "R", []string{"a", "b", "c"},
		[]int64{1, 1, 30}, []int64{1, 1, 10}, []int64{1, 2, 20}, []int64{1, 1, 10}, []int64{2, 1, 5})
	a := NewTableAtom(tb)
	b := mapBinding{"a": 1, "b": 1}
	opened := openAll(t, a, "c", b)
	h, err := a.ResidualHandle([]string{"c"})
	if err != nil {
		t.Fatal(err)
	}
	run, err := h.Run(b)
	if err != nil {
		t.Fatal(err)
	}
	if want := []relational.Value{10, 30}; !slices.Equal(opened, want) || !slices.Equal(run, want) {
		t.Fatalf("Open = %v, residual run = %v, want %v", opened, run, want)
	}
	if n := a.IndexInfo().Indexes; n != 1 {
		t.Errorf("Open and the residual tail built %d indexes for one shape, want 1", n)
	}
}

// openAll opens attr on a under b and drains the cursor.
func openAll(t *testing.T, a *TableAtom, attr string, b Binding) []relational.Value {
	t.Helper()
	it, err := a.Open(attr, b)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var got []relational.Value
	for ; !it.AtEnd(); it.Next() {
		got = append(got, it.Key())
	}
	return got
}

// fuzzTableMaxRows caps the rows FuzzTableIndex decodes, keeping its
// brute-force oracle cheap.
const fuzzTableMaxRows = 64

// fuzzTableInput encodes one FuzzTableIndex case: the arity, the residual
// targets (column numbers, in enumeration order), the bound-column mask of
// the Open checks, one probe value per column, then the rows.
func fuzzTableInput(arity int, targets []byte, mask uint16, probe []byte, rows ...[]byte) []byte {
	in := []byte{byte(arity - 1), byte(len(targets) - 1)}
	in = append(in, targets...)
	in = append(in, byte(mask), byte(mask>>8))
	in = append(in, probe...)
	for _, r := range rows {
		in = append(in, r...)
	}
	return in
}

// FuzzTableIndex checks TableAtom.Open, for every target, and the residual
// run of a target list against a brute-force filter → project → sort →
// dedup over a small decoded table. Open is probed with the decoded key and
// with every row's own key; the residual run binds every non-target column.
func FuzzTableIndex(f *testing.F) {
	// An empty table.
	f.Add(fuzzTableInput(3, []byte{2, 0}, 0b011, []byte{1, 1, 1}))
	// An all-duplicate table.
	f.Add(fuzzTableInput(3, []byte{2, 0}, 0b011, []byte{1, 2, 3},
		[]byte{1, 2, 3}, []byte{1, 2, 3}, []byte{1, 2, 3}))
	// No bound columns.
	f.Add(fuzzTableInput(3, []byte{1}, 0, []byte{0, 0, 0},
		[]byte{2, 1, 0}, []byte{1, 2, 0}, []byte{1, 1, 7}))
	// Nine bound columns: the key outgrows Open's 8-value stack buffer.
	f.Add(fuzzTableInput(10, []byte{9}, 0x3ff, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
		[]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 1}, []byte{0, 1, 2, 3, 4, 5, 6, 7, 9, 9}))
	// A probe key before the first group, then one after the last.
	f.Add(fuzzTableInput(2, []byte{1}, 0b01, []byte{0, 0}, []byte{3, 1}, []byte{5, 2}))
	f.Add(fuzzTableInput(2, []byte{1}, 0b01, []byte{255, 0}, []byte{3, 1}, []byte{5, 2}))
	// Residual targets [c, a], out of column order.
	f.Add(fuzzTableInput(3, []byte{2, 0}, 0b010, []byte{0, 4, 0},
		[]byte{1, 4, 9}, []byte{2, 4, 1}, []byte{1, 5, 9}, []byte{0, 4, 9}))
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		arity := 1 + int(in[0])%10
		nt := 1 + int(in[1])%arity
		in = in[2:]
		if len(in) < nt+2+arity {
			return
		}
		var targets []int
		for _, b := range in[:nt] {
			if c := int(b) % arity; !slices.Contains(targets, c) {
				targets = append(targets, c)
			}
		}
		mask := (uint(in[nt]) | uint(in[nt+1])<<8) & (1<<arity - 1)
		probe := in[nt+2 : nt+2+arity]
		in = in[nt+2+arity:]
		attrs := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}[:arity]
		var rows [][]int64
		for len(in) >= arity && len(rows) < fuzzTableMaxRows {
			row := make([]int64, arity)
			for i := range row {
				row[i] = int64(in[i])
			}
			rows = append(rows, row)
			in = in[arity:]
		}
		a := NewTableAtom(table(t, "R", attrs, rows...))

		// want filters rows on the bound columns of key, projects them onto
		// cols and returns the sorted distinct projections, flattened.
		want := func(key []int64, bound uint, cols []int) []relational.Value {
			var tuples [][]relational.Value
			for _, r := range rows {
				match := true
				for c := range arity {
					if bound&(1<<c) != 0 && r[c] != key[c] {
						match = false
					}
				}
				if match {
					tup := make([]relational.Value, len(cols))
					for i, c := range cols {
						tup[i] = relational.Value(r[c])
					}
					tuples = append(tuples, tup)
				}
			}
			slices.SortFunc(tuples, slices.Compare)
			tuples = slices.CompactFunc(tuples, slices.Equal)
			return slices.Concat(tuples...)
		}
		bind := func(key []int64, bound uint) mapBinding {
			m := mapBinding{}
			for c := range arity {
				if bound&(1<<c) != 0 {
					m[attrs[c]] = relational.Value(key[c])
				}
			}
			return m
		}
		keys := [][]int64{make([]int64, arity)}
		for c, b := range probe {
			keys[0][c] = int64(b)
		}
		keys = append(keys, rows...)

		for x := range arity {
			bound := mask &^ (1 << x)
			for _, key := range keys {
				got := openAll(t, a, attrs[x], bind(key, bound))
				if exp := want(key, bound, []int{x}); !slices.Equal(got, exp) {
					t.Fatalf("Open(%s) under %v = %v, want %v", attrs[x], bind(key, bound), got, exp)
				}
			}
		}

		names := make([]string, len(targets))
		bound := uint(1<<arity - 1)
		for i, c := range targets {
			names[i] = attrs[c]
			bound &^= 1 << c
		}
		h, err := a.ResidualHandle(names)
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range keys {
			got, err := h.Run(bind(key, bound))
			if err != nil {
				t.Fatal(err)
			}
			if exp := want(key, bound, targets); !slices.Equal(got, exp) {
				t.Fatalf("residual run of %v under %v = %v, want %v", names, bind(key, bound), got, exp)
			}
		}
	})
}

// bindingOf adapts a map to the Binding interface for tests.
type mapBinding map[string]relational.Value

func (m mapBinding) Get(attr string) (relational.Value, bool) {
	v, ok := m[attr]
	return v, ok
}

func bindingOf(t *testing.T, m map[string]relational.Value) Binding {
	t.Helper()
	return mapBinding(m)
}
