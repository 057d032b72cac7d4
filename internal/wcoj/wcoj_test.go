package wcoj

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/relational"
)

func table(t *testing.T, name string, attrs []string, rows ...[]int64) *relational.Table {
	t.Helper()
	tb := relational.NewTable(name, relational.MustSchema(attrs...))
	for _, r := range rows {
		tup := make(relational.Tuple, len(r))
		for i, v := range r {
			tup[i] = relational.Value(v)
		}
		if err := tb.Append(tup); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func TestTrieIteratorWalk(t *testing.T) {
	tb := table(t, "R", []string{"a", "b"},
		[]int64{1, 10}, []int64{1, 20}, []int64{2, 10}, []int64{1, 10})
	tr, err := NewTrie(tb, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 3 {
		t.Fatalf("trie rows = %d want 3 (dedup)", tr.Len())
	}
	it := tr.NewIterator()
	if !it.Open() {
		t.Fatal("Open at root failed")
	}
	var as []relational.Value
	for !it.AtEnd() {
		as = append(as, it.Key())
		it.Next()
	}
	if !reflect.DeepEqual(as, []relational.Value{1, 2}) {
		t.Fatalf("level-0 keys = %v", as)
	}
	// Re-open and descend under a=1.
	it = tr.NewIterator()
	it.Open()
	if it.Key() != 1 {
		t.Fatal("first key not 1")
	}
	if !it.Open() {
		t.Fatal("Open under a=1 failed")
	}
	var bs []relational.Value
	for !it.AtEnd() {
		bs = append(bs, it.Key())
		it.Next()
	}
	if !reflect.DeepEqual(bs, []relational.Value{10, 20}) {
		t.Fatalf("b values under a=1: %v", bs)
	}
	it.Up()
	it.Next() // a=2
	if it.AtEnd() || it.Key() != 2 {
		t.Fatalf("after Up/Next expected a=2")
	}
	it.Open()
	if it.Key() != 10 {
		t.Fatalf("b under a=2 = %v", it.Key())
	}
}

func TestTrieIteratorSeek(t *testing.T) {
	tb := table(t, "R", []string{"a"},
		[]int64{1}, []int64{3}, []int64{5}, []int64{9})
	tr, _ := NewTrie(tb, []string{"a"})
	it := tr.NewIterator()
	it.Open()
	it.Seek(4)
	if it.AtEnd() || it.Key() != 5 {
		t.Fatalf("Seek(4) -> %v", it.Key())
	}
	it.Seek(5)
	if it.Key() != 5 {
		t.Fatal("Seek to current value moved")
	}
	it.Seek(10)
	if !it.AtEnd() {
		t.Fatal("Seek past end not AtEnd")
	}
}

func TestNewTrieErrors(t *testing.T) {
	tb := table(t, "R", []string{"a"}, []int64{1})
	if _, err := NewTrie(tb, nil); err == nil {
		t.Error("empty attr list accepted")
	}
	if _, err := NewTrie(tb, []string{"zz"}); err == nil {
		t.Error("unknown attribute accepted")
	}
}

func triangleTables(t *testing.T, rng *rand.Rand, n, dom int) []*relational.Table {
	t.Helper()
	mk := func(name, x, y string) *relational.Table {
		tb := relational.NewTable(name, relational.MustSchema(x, y))
		for i := 0; i < n; i++ {
			tb.MustAppend(relational.Value(rng.Intn(dom)), relational.Value(rng.Intn(dom)))
		}
		tb.Dedup()
		return tb
	}
	return []*relational.Table{mk("R", "a", "b"), mk("S", "b", "c"), mk("T", "a", "c")}
}

// nestedLoopTriangle computes the triangle join by brute force.
func nestedLoopTriangle(ts []*relational.Table) map[[3]relational.Value]bool {
	out := make(map[[3]relational.Value]bool)
	R, S, T := ts[0], ts[1], ts[2]
	for i := 0; i < R.Len(); i++ {
		for j := 0; j < S.Len(); j++ {
			if R.Value(i, 1) != S.Value(j, 0) {
				continue
			}
			for k := 0; k < T.Len(); k++ {
				if T.Value(k, 0) == R.Value(i, 0) && T.Value(k, 1) == S.Value(j, 1) {
					out[[3]relational.Value{R.Value(i, 0), R.Value(i, 1), S.Value(j, 1)}] = true
				}
			}
		}
	}
	return out
}

func TestLeapfrogTriangleVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		ts := triangleTables(t, rng, 5+rng.Intn(40), 2+rng.Intn(8))
		want := nestedLoopTriangle(ts)
		got := make(map[[3]relational.Value]bool)
		stats, err := LeapfrogTriejoin(ts, []string{"a", "b", "c"}, func(tu relational.Tuple) bool {
			got[[3]relational.Value{tu[0], tu[1], tu[2]}] = true
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: LFTJ %d tuples, brute force %d", trial, len(got), len(want))
		}
		if stats.Output != len(got) {
			t.Fatalf("stats output %d vs %d", stats.Output, len(got))
		}
	}
}

func TestGenericJoinTriangleVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 30; trial++ {
		ts := triangleTables(t, rng, 5+rng.Intn(40), 2+rng.Intn(8))
		want := nestedLoopTriangle(ts)
		atoms := []Atom{NewTableAtom(ts[0]), NewTableAtom(ts[1]), NewTableAtom(ts[2])}
		res, err := GenericJoin(atoms, []string{"a", "b", "c"})
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[[3]relational.Value]bool)
		for _, tu := range res.Tuples {
			got[[3]relational.Value{tu[0], tu[1], tu[2]}] = true
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: generic %d want %d", trial, len(got), len(want))
		}
		if len(res.Tuples) != len(got) {
			t.Fatalf("trial %d: generic join emitted duplicates", trial)
		}
		if res.Stats.Output != len(got) || len(res.Stats.StageSizes) == 0 {
			t.Fatalf("bad stats: %+v", res.Stats)
		}
	}
}

// TestGenericJoinMatchesLeapfrogOnChains joins random chain queries
// R1(a0,a1) ⋈ R2(a1,a2) ⋈ ... with both engines.
func TestGenericJoinMatchesLeapfrogOnChains(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		k := 2 + rng.Intn(3)
		var tables []*relational.Table
		var order []string
		for i := 0; i <= k; i++ {
			order = append(order, fmt.Sprintf("a%d", i))
		}
		for i := 0; i < k; i++ {
			tb := relational.NewTable(fmt.Sprintf("R%d", i),
				relational.MustSchema(order[i], order[i+1]))
			for r := 0; r < 10+rng.Intn(20); r++ {
				tb.MustAppend(relational.Value(rng.Intn(5)), relational.Value(rng.Intn(5)))
			}
			tb.Dedup()
			tables = append(tables, tb)
		}
		lf := make(map[string]bool)
		if _, err := LeapfrogTriejoin(tables, order, func(tu relational.Tuple) bool {
			lf[fmt.Sprint(tu)] = true
			return true
		}); err != nil {
			t.Fatal(err)
		}
		atoms := make([]Atom, len(tables))
		for i, tb := range tables {
			atoms[i] = NewTableAtom(tb)
		}
		res, err := GenericJoin(atoms, order)
		if err != nil {
			t.Fatal(err)
		}
		gj := make(map[string]bool)
		for _, tu := range res.Tuples {
			gj[fmt.Sprint(tu)] = true
		}
		if !reflect.DeepEqual(lf, gj) {
			t.Fatalf("trial %d: LFTJ %d vs GJ %d tuples", trial, len(lf), len(gj))
		}
	}
}

func TestGenericJoinValidation(t *testing.T) {
	tb := table(t, "R", []string{"a", "b"}, []int64{1, 2})
	atom := NewTableAtom(tb)
	if _, err := GenericJoin([]Atom{atom}, []string{"a"}); err == nil {
		t.Error("missing attribute in order accepted")
	}
	if _, err := GenericJoin([]Atom{atom}, []string{"a", "b", "c"}); err == nil {
		t.Error("uncovered attribute accepted")
	}
	if _, err := GenericJoin([]Atom{atom}, []string{"a", "a", "b"}); err == nil {
		t.Error("duplicate order attribute accepted")
	}
}

func TestLeapfrogValidation(t *testing.T) {
	tb := table(t, "R", []string{"a", "b"}, []int64{1, 2})
	if _, err := LeapfrogTriejoin(nil, []string{"a"}, nil); err == nil {
		t.Error("no tables accepted")
	}
	if _, err := LeapfrogTriejoin([]*relational.Table{tb}, []string{"a"}, nil); err == nil {
		t.Error("missing attr accepted")
	}
	if _, err := LeapfrogTriejoin([]*relational.Table{tb}, []string{"a", "b", "c"}, nil); err == nil {
		t.Error("uncovered attr accepted")
	}
}

func TestSetAtomRestricts(t *testing.T) {
	tb := table(t, "R", []string{"a", "b"}, []int64{1, 10}, []int64{2, 20}, []int64{3, 30})
	sel := NewSetAtom("sel", "a", []relational.Value{2, 3, 9})
	res, err := GenericJoin([]Atom{NewTableAtom(tb), sel}, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 2 {
		t.Fatalf("selection kept %d tuples want 2", len(res.Tuples))
	}
}

func TestHashJoinVsNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		a := relational.NewTable("A", relational.MustSchema("x", "y"))
		b := relational.NewTable("B", relational.MustSchema("y", "z"))
		for i := 0; i < 5+rng.Intn(30); i++ {
			a.MustAppend(relational.Value(rng.Intn(6)), relational.Value(rng.Intn(6)))
		}
		for i := 0; i < 5+rng.Intn(30); i++ {
			b.MustAppend(relational.Value(rng.Intn(6)), relational.Value(rng.Intn(6)))
		}
		hj, err := HashJoin("J", a, b)
		if err != nil {
			t.Fatal(err)
		}
		nl, err := NestedLoopJoin("J", a, b)
		if err != nil {
			t.Fatal(err)
		}
		hj.Dedup()
		nl.Dedup()
		if hj.Len() != nl.Len() {
			t.Fatalf("trial %d: hash %d vs nested loop %d", trial, hj.Len(), nl.Len())
		}
		for i := 0; i < hj.Len(); i++ {
			if !reflect.DeepEqual(hj.Row(i), nl.Row(i)) {
				t.Fatalf("trial %d row %d: %v vs %v", trial, i, hj.Row(i), nl.Row(i))
			}
		}
	}
}

func TestHashJoinCartesian(t *testing.T) {
	a := table(t, "A", []string{"x"}, []int64{1}, []int64{2})
	b := table(t, "B", []string{"y"}, []int64{10}, []int64{20}, []int64{30})
	j, err := HashJoin("J", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 6 {
		t.Fatalf("cartesian size = %d want 6", j.Len())
	}
}

func TestChainHashJoinStats(t *testing.T) {
	a := table(t, "A", []string{"x", "y"}, []int64{1, 1}, []int64{2, 2})
	b := table(t, "B", []string{"y", "z"}, []int64{1, 5}, []int64{1, 6}, []int64{2, 7})
	c := table(t, "C", []string{"z"}, []int64{5}, []int64{7})
	out, stats, err := ChainHashJoin("Q", []*relational.Table{a, b, c})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("final = %d want 2", out.Len())
	}
	if len(stats.StepSizes) != 3 || stats.StepSizes[1] != 3 {
		t.Fatalf("step sizes = %v", stats.StepSizes)
	}
	if stats.PeakIntermediate != 3 || stats.Output != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	if _, _, err := ChainHashJoin("Q", nil); err == nil {
		t.Error("empty chain accepted")
	}
}

// Property: on the AGM worst-case triangle instance (R=S=T = [k]x[k] grids),
// Generic Join's peak intermediate stays within the n^{3/2} bound where
// n = k^2 is each relation's size (bound = k^3).
func TestGenericJoinTriangleBound(t *testing.T) {
	k := 6
	grid := func(name, x, y string) *relational.Table {
		tb := relational.NewTable(name, relational.MustSchema(x, y))
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				tb.MustAppend(relational.Value(i), relational.Value(j))
			}
		}
		return tb
	}
	atoms := []Atom{
		NewTableAtom(grid("R", "a", "b")),
		NewTableAtom(grid("S", "b", "c")),
		NewTableAtom(grid("T", "a", "c")),
	}
	res, err := GenericJoin(atoms, []string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	bound := k * k * k // n^{3/2} with n = k^2
	if res.Stats.PeakIntermediate > bound {
		t.Fatalf("peak intermediate %d exceeds AGM bound %d", res.Stats.PeakIntermediate, bound)
	}
	if res.Stats.Output != k*k*k {
		t.Fatalf("grid triangle output = %d want %d", res.Stats.Output, k*k*k)
	}
}
