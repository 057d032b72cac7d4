package wcoj

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/faultpoint"
	"repro/internal/relational"
)

// plainAtom hides a TableAtom's type from the run, so it opens through
// Atom.Open: the oracle every compiled step is checked against.
type plainAtom struct{ Atom }

// fuzzJoinAttrs is the attribute universe of FuzzCompiledJoin's tables.
var fuzzJoinAttrs = []string{"a", "b", "c", "d", "e"}

// fuzzJoinTable is one table of a FuzzCompiledJoin case: its columns (as
// indexes into fuzzJoinAttrs, in column order) and its rows.
type fuzzJoinTable struct {
	cols []byte
	rows [][]byte
}

// compiledJoinInput encodes one FuzzCompiledJoin case: the stop count, the
// attribute priority the order is derived from, then each table's arity,
// columns, row count and rows.
func compiledJoinInput(stop byte, prio []byte, tables ...fuzzJoinTable) []byte {
	in := []byte{stop, byte(len(tables) - 1), byte(len(prio))}
	in = append(in, prio...)
	for _, t := range tables {
		in = append(in, byte(len(t.cols)-2))
		in = append(in, t.cols...)
		in = append(in, byte(len(t.rows)))
		for _, r := range t.rows {
			in = append(in, r...)
		}
	}
	return in
}

// fuzzJoinMaxRows caps the rows of one decoded table.
const fuzzJoinMaxRows = 24

// decodeCompiledJoin decodes a FuzzCompiledJoin input into tables and a
// valid order: every attribute some table uses, ranked by its first
// mention in the priority bytes (unmentioned ones last, by name). Values
// are taken mod 4 so rows collide and joins are not empty. ok is false
// when the input does not describe a table.
func decodeCompiledJoin(t *testing.T, in []byte) (tables []*relational.Table, order []string, stop int, ok bool) {
	next := func() int {
		if len(in) == 0 {
			return 0
		}
		b := in[0]
		in = in[1:]
		return int(b)
	}
	stop = next()
	nt := 1 + next()%3
	prio := make([]int, next()%8)
	for i := range prio {
		prio[i] = next() % len(fuzzJoinAttrs)
	}
	used := make([]bool, len(fuzzJoinAttrs))
	for ti := 0; ti < nt && len(in) > 0; ti++ {
		arity := 2 + next()%3
		var attrs []string
		for len(attrs) < arity {
			c := next() % len(fuzzJoinAttrs)
			for slices.Contains(attrs, fuzzJoinAttrs[c]) {
				c = (c + 1) % len(fuzzJoinAttrs)
			}
			attrs = append(attrs, fuzzJoinAttrs[c])
			used[c] = true
		}
		nrows := next() % (fuzzJoinMaxRows + 1)
		var rows [][]int64
		for r := 0; r < nrows && len(in) > 0; r++ {
			row := make([]int64, arity)
			for i := range row {
				row[i] = int64(next() % 4)
			}
			rows = append(rows, row)
		}
		tables = append(tables, table(t, fmt.Sprintf("T%d", ti), attrs, rows...))
	}
	if len(tables) == 0 {
		return nil, nil, 0, false
	}
	for _, c := range prio {
		if used[c] && !slices.Contains(order, fuzzJoinAttrs[c]) {
			order = append(order, fuzzJoinAttrs[c])
		}
	}
	for c, u := range used {
		if u && !slices.Contains(order, fuzzJoinAttrs[c]) {
			order = append(order, fuzzJoinAttrs[c])
		}
	}
	return tables, order, stop, true
}

// joinRun is what one executor run produced.
type joinRun struct {
	tuples []relational.Tuple
	stats  *GenericJoinStats
}

// serialJoin runs the serial executor, stopping after stop tuples when
// stop > 0.
func serialJoin(t *testing.T, atoms []Atom, order []string, stop int) joinRun {
	t.Helper()
	var out []relational.Tuple
	stats, err := GenericJoinStream(atoms, order, func(tu relational.Tuple) bool {
		out = append(out, tu.Clone())
		return stop <= 0 || len(out) < stop
	})
	if err != nil {
		t.Fatal(err)
	}
	return joinRun{out, stats}
}

// sameLevels reports the first per-level counter on which a and b differ.
func sameLevels(a, b *GenericJoinStats) error {
	for _, c := range []struct {
		name string
		x, y []int
	}{
		{"StageSizes", a.StageSizes, b.StageSizes},
		{"LevelSeeks", a.LevelSeeks, b.LevelSeeks},
		{"LevelIntersections", a.LevelIntersections, b.LevelIntersections},
		{"LevelBatches", a.LevelBatches, b.LevelBatches},
	} {
		if !slices.Equal(c.x, c.y) {
			return fmt.Errorf("%s %v, oracle %v", c.name, c.x, c.y)
		}
	}
	if a.Output != b.Output {
		return fmt.Errorf("Output %d, oracle %d", a.Output, b.Output)
	}
	return nil
}

// FuzzCompiledJoin checks the compiled table steps against the plain
// Atom.Open path on random 2–4-column tables with duplicate rows under
// random valid orders — including orders that enumerate a table out of
// column order, where a step falls back to its search. Serial runs must
// agree tuple for tuple and on every per-level counter, to completion and
// when the sink stops after k tuples (and tuple for tuple with the first
// table wrapped as a MaterializedAtom); morsel-parallel runs at 1, 2 and 8
// workers, whose sub-tasks enter below their prefix with no open parent
// cursor, must return the oracle's tuples in its order, and a parallel
// run stopped by its sink only tuples of the oracle's answer.
func FuzzCompiledJoin(f *testing.F) {
	// A triangle: every step after the first descends by offset.
	f.Add(compiledJoinInput(3, []byte{0, 1, 2},
		fuzzJoinTable{[]byte{0, 1}, [][]byte{{0, 1}, {0, 2}, {1, 1}, {1, 3}, {2, 0}, {0, 1}, {3, 3}}},
		fuzzJoinTable{[]byte{1, 2}, [][]byte{{1, 0}, {1, 2}, {2, 2}, {3, 1}, {0, 0}, {1, 2}}},
		fuzzJoinTable{[]byte{0, 2}, [][]byte{{0, 0}, {0, 2}, {1, 2}, {1, 1}, {2, 0}, {3, 1}}}))
	// A three-column table enumerated out of column order (b, a, c): its
	// step at c must search, since a is not its highest bound column.
	f.Add(compiledJoinInput(2, []byte{1, 0, 2},
		fuzzJoinTable{[]byte{0, 1, 2}, [][]byte{{0, 1, 2}, {0, 1, 3}, {1, 1, 0}, {1, 2, 2}, {2, 1, 1}, {0, 1, 2}, {3, 0, 3}}},
		fuzzJoinTable{[]byte{1, 2}, [][]byte{{1, 2}, {1, 0}, {1, 1}, {2, 2}, {0, 3}}}))
	// A four-column table enumerated in reverse column order, joined on two
	// of its columns.
	f.Add(compiledJoinInput(5, []byte{3, 2, 1, 0},
		fuzzJoinTable{[]byte{0, 1, 2, 3}, [][]byte{{0, 0, 1, 1}, {1, 0, 1, 1}, {0, 1, 1, 2}, {2, 2, 3, 3}, {3, 1, 2, 0}, {0, 0, 1, 1}, {1, 3, 1, 1}}},
		fuzzJoinTable{[]byte{3, 2}, [][]byte{{1, 1}, {2, 1}, {3, 3}, {0, 2}}}))
	// A two-column table whose columns run against the order: (c, a) under
	// a, c still descends.
	f.Add(compiledJoinInput(1, []byte{0, 2},
		fuzzJoinTable{[]byte{2, 0}, [][]byte{{0, 0}, {1, 0}, {2, 1}, {3, 1}, {0, 2}, {1, 2}, {1, 2}}},
		fuzzJoinTable{[]byte{0, 4}, [][]byte{{0, 1}, {1, 1}, {2, 2}}}))
	// One table alone, all duplicates, then an empty one.
	f.Add(compiledJoinInput(0, nil, fuzzJoinTable{[]byte{0, 1, 2}, [][]byte{{1, 2, 3}, {1, 2, 3}, {1, 2, 3}}}))
	f.Add(compiledJoinInput(0, []byte{1}, fuzzJoinTable{[]byte{0, 1}, nil}, fuzzJoinTable{[]byte{1, 2}, [][]byte{{0, 0}}}))
	f.Fuzz(func(t *testing.T, in []byte) {
		tables, order, stop, ok := decodeCompiledJoin(t, in)
		if !ok {
			return
		}
		var compiled, plain []Atom
		for _, tb := range tables {
			compiled = append(compiled, NewTableAtom(tb))
			plain = append(plain, plainAtom{NewTableAtom(tb)})
		}
		oracle := serialJoin(t, plain, order, 0)
		got := serialJoin(t, compiled, order, 0)
		if !slices.EqualFunc(got.tuples, oracle.tuples, slices.Equal) {
			t.Fatalf("order %v: compiled %v, oracle %v", order, got.tuples, oracle.tuples)
		}
		if err := sameLevels(got.stats, oracle.stats); err != nil {
			t.Fatalf("order %v: compiled %v", order, err)
		}

		if k := 1 + stop%(len(oracle.tuples)+1); k <= len(oracle.tuples) {
			want := serialJoin(t, plain, order, k)
			got := serialJoin(t, compiled, order, k)
			if !slices.EqualFunc(got.tuples, want.tuples, slices.Equal) {
				t.Fatalf("order %v, stop after %d: compiled %v, oracle %v", order, k, got.tuples, want.tuples)
			}
			if err := sameLevels(got.stats, want.stats); err != nil {
				t.Fatalf("order %v, stop after %d: compiled %v", order, k, err)
			}
		}

		// A materialized intermediate compiles like the table it wraps (its
		// statistics differ only where the wholesale tail takes over).
		mat := append([]Atom{NewMaterializedAtom("M", tables[0], nil)}, compiled[1:]...)
		if got := serialJoin(t, mat, order, 0); !slices.EqualFunc(got.tuples, oracle.tuples, slices.Equal) {
			t.Fatalf("order %v, first table materialized: %v, oracle %v", order, got.tuples, oracle.tuples)
		}

		for _, workers := range []int{1, 2, 8} {
			res, err := GenericJoinParallelOpts(compiled, order, ParallelOpts{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.EqualFunc(res.Tuples, oracle.tuples, slices.Equal) {
				t.Fatalf("order %v, %d workers: compiled %v, oracle %v", order, workers, res.Tuples, oracle.tuples)
			}
		}

		if len(oracle.tuples) > 0 {
			full := make(map[string]bool, len(oracle.tuples))
			for _, tu := range oracle.tuples {
				full[fmt.Sprint(tu)] = true
			}
			sink := &limitedSink{limit: int64(1 + stop%len(oracle.tuples))}
			if _, err := GenericJoinParallelStreamOpts(compiled, order, ParallelOpts{Workers: 2}, sink.yield); err != nil {
				t.Fatal(err)
			}
			for _, tu := range sink.tuples {
				if !full[fmt.Sprint(tu)] {
					t.Fatalf("order %v, stopped parallel run: tuple %v not in the answer", order, tu)
				}
			}
		}
	})
}

// TestCompiledStepsDescend pins which steps descend by offset: a step
// descends exactly when its atom's previous target is its highest bound
// column — always with one bound column, never for a three-column table
// enumerated out of column order — and atoms other than tables are not
// compiled.
func TestCompiledStepsDescend(t *testing.T) {
	r3 := NewTableAtom(table(t, "R", []string{"a", "b", "c"}))
	s2 := NewTableAtom(table(t, "S", []string{"c", "b"}))
	set := NewSetAtom("U", "b", nil)
	for _, tc := range []struct {
		order []string
		// want[d] lists, per atom of depth d's group, "-" for a plain
		// open, "s" for a compiled step that searches, "d" for one that
		// descends.
		want [][]string
	}{
		{[]string{"a", "b", "c"}, [][]string{{"s"}, {"d", "s", "-"}, {"d", "d"}}},
		{[]string{"b", "a", "c"}, [][]string{{"s", "s", "-"}, {"d"}, {"s", "d"}}},
		{[]string{"c", "b", "a"}, [][]string{{"s", "s"}, {"d", "d", "-"}, {"s"}}},
	} {
		pos, byAttr, err := groupAtoms([]Atom{r3, s2, set}, tc.order)
		if err != nil {
			t.Fatal(err)
		}
		r := newStreamRun(tc.order, byAttr, pos, StreamOpts{}, &GenericJoinStats{}, nil)
		for d := range r.lv {
			var got []string
			for j := range byAttr[d] {
				switch s := r.step(d, j); {
				case s == nil || s.a == nil:
					got = append(got, "-")
				case s.descend:
					got = append(got, "d")
				default:
					got = append(got, "s")
				}
			}
			if !slices.Equal(got, tc.want[d]) {
				t.Errorf("order %v depth %d (%v): steps %v, want %v", tc.order, d, byAttrNames(byAttr[d]), got, tc.want[d])
			}
		}
	}
}

// TestCompiledStepsSkipWideTables: a table wider than maxStepKey+1 columns
// is not compiled, and still joins through Atom.Open.
func TestCompiledStepsSkipWideTables(t *testing.T) {
	attrs := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}
	row := []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	wide := NewTableAtom(table(t, "W", attrs, row, row))
	narrow := NewTableAtom(table(t, "N", []string{"j", "a"}, []int64{9, 0}, []int64{9, 1}))
	pos, byAttr, err := groupAtoms([]Atom{wide, narrow}, attrs)
	if err != nil {
		t.Fatal(err)
	}
	r := newStreamRun(attrs, byAttr, pos, StreamOpts{}, &GenericJoinStats{}, nil)
	for d := range r.lv {
		for j := range byAttr[d] {
			if s := r.step(d, j); (s != nil && s.a != nil) != (byAttr[d][j] == Atom(narrow)) {
				t.Errorf("depth %d: atom %s compiled=%v", d, byAttr[d][j].Name(), s != nil)
			}
		}
	}
	res, err := GenericJoin([]Atom{wide, narrow}, attrs)
	if err != nil || len(res.Tuples) != 1 || !slices.Equal(res.Tuples[0], relational.Tuple{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}) {
		t.Fatalf("join = %v, err %v", res, err)
	}
}

func byAttrNames(g []Atom) []string {
	var names []string
	for _, a := range g {
		names = append(names, a.Name())
	}
	return names
}

// TestCompiledJoinAllocs pins that compiling the table atoms costs a run
// no allocation beyond one: a warm serial join over TableAtoms allocates
// its fixed setup only, the steps in one slice, at most one more than the
// same join opening every atom through Atom.Open (which needs no steps).
func TestCompiledJoinAllocs(t *testing.T) {
	ts := benchTriangle(8)
	order := []string{"a", "b", "c"}
	var compiled, plain []Atom
	for _, tb := range ts {
		compiled = append(compiled, NewTableAtom(tb))
		plain = append(plain, plainAtom{NewTableAtom(tb)})
	}
	emit := func(relational.Tuple) bool { return true }
	allocs := func(atoms []Atom) float64 {
		if _, err := GenericJoinStream(atoms, order, emit); err != nil { // warm the indexes
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := GenericJoinStream(atoms, order, emit); err != nil {
				t.Fatal(err)
			}
		})
	}
	c, p := allocs(compiled), allocs(plain)
	// The run's fixed setup, as measured: groupAtoms' map and group
	// slices, the statistics, their order copy and level array, the emit
	// wrapper, and newStreamRun's value buffer, cursor and step slices,
	// levels and the run itself.
	const setup = 18
	if c > setup || c > p+1 {
		t.Fatalf("compiled join: %.0f allocs per run, plain opens %.0f, setup %d", c, p, setup)
	}
}

// ownedCursorsClosed reports an error naming the first compiled step of r
// whose cursor is still marked open, or has lost its ownership.
func ownedCursorsClosed(r *streamRun) error {
	for d, lv := range r.lv {
		if len(lv.its) != 0 {
			return fmt.Errorf("depth %d still records %d open cursors", d, len(lv.its))
		}
	}
	for i, s := range r.steps {
		if s.a != nil && (s.it.vals != nil || !s.it.owned) {
			return fmt.Errorf("step %d: open=%v owned=%v", i, s.it.vals != nil, s.it.owned)
		}
	}
	return nil
}

// poolIsClean drains up to n cursors from valuesIterPool and reports an
// error if one of them is an owned cursor or comes out twice — a cursor
// put back twice. The pool may drop entries, so a clean drain proves
// nothing; a dirty one is always a fault.
func poolIsClean(n int) error {
	seen := make(map[*valuesIter]bool)
	for range n {
		it := valuesIterPool.Get().(*valuesIter)
		if it.owned {
			return errors.New("an owned cursor was put in the pool")
		}
		if seen[it] {
			return errors.New("a pooled cursor was put back twice")
		}
		seen[it] = true
	}
	return nil
}

// TestCompiledCursorsOnFailure drives serial runs into an injected
// wcoj.table.open fault and into an emit that panics mid-run, over table
// atoms mixed with a pooled-cursor atom: the run must fail, leave no owned
// cursor marked open and put no cursor in the pool twice (or an owned one
// at all), and a second closeOpen must be a no-op. The parallel executor
// is driven through the same faults and must fail cleanly too.
func TestCompiledCursorsOnFailure(t *testing.T) {
	ts := benchTriangle(6)
	order := []string{"a", "b", "c"}
	atoms := []Atom{NewTableAtom(ts[0]), NewTableAtom(ts[1]), NewTableAtom(ts[2]),
		NewSetAtom("U", "b", []relational.Value{1, 2, 3, 4})}
	boom := errors.New("injected table open")
	var emitted atomic.Int64
	for _, tc := range []struct {
		name  string
		rules []faultpoint.Rule
		emit  func(relational.Tuple) bool
		check func(error) bool
	}{
		{"table-open-fault", []faultpoint.Rule{{Name: "wcoj.table.open", Skip: 9, Err: boom}},
			func(relational.Tuple) bool { return true },
			func(err error) bool { return errors.Is(err, boom) }},
		{"emit-panic", nil,
			func(relational.Tuple) bool {
				if emitted.Add(1) == 20 {
					panic("emit died")
				}
				return true
			},
			func(err error) bool { var pe *PanicError; return errors.As(err, &pe) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Cleanup(faultpoint.Reset)
			faultpoint.Install(tc.rules...)
			emitted.Store(0)
			pos, byAttr, err := groupAtoms(atoms, order)
			if err != nil {
				t.Fatal(err)
			}
			stats := &GenericJoinStats{}
			stats.allocLevels(len(order))
			r := newStreamRun(order, byAttr, pos, StreamOpts{}, stats, tc.emit)
			if err := r.drive(); !tc.check(err) {
				t.Fatalf("serial run: err = %v", err)
			}
			if err := ownedCursorsClosed(r); err != nil {
				t.Fatal(err)
			}
			r.closeOpen()
			if err := ownedCursorsClosed(r); err != nil {
				t.Fatalf("second closeOpen: %v", err)
			}
			if err := poolIsClean(64); err != nil {
				t.Fatal(err)
			}

			for _, workers := range []int{1, 2} {
				faultpoint.Install(tc.rules...)
				emitted.Store(0)
				_, err := GenericJoinParallelStreamOpts(atoms, order, ParallelOpts{Workers: workers}, tc.emit)
				if !tc.check(err) {
					t.Fatalf("%d workers: err = %v", workers, err)
				}
				if err := poolIsClean(64); err != nil {
					t.Fatalf("%d workers: %v", workers, err)
				}
			}

			// The atoms keep answering after the failures.
			faultpoint.Reset()
			res, err := GenericJoin(atoms, order)
			if err != nil || len(res.Tuples) == 0 {
				t.Fatalf("rerun: %d tuples, err %v", len(res.Tuples), err)
			}
		})
	}
}
