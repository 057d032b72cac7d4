package wcoj

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/relational"
)

func TestValuesIterSeek(t *testing.T) {
	it := openValues([]relational.Value{1, 3, 5, 9, 12, 40})
	defer it.Close()
	if it.AtEnd() || it.Key() != 1 {
		t.Fatalf("fresh cursor at %v", it.Key())
	}
	it.Seek(4)
	if it.Key() != 5 {
		t.Fatalf("Seek(4) -> %v", it.Key())
	}
	it.Seek(5) // seek to the current value must not move
	if it.Key() != 5 {
		t.Fatalf("Seek(5) moved to %v", it.Key())
	}
	it.Next()
	if it.Key() != 9 {
		t.Fatalf("Next -> %v", it.Key())
	}
	it.Seek(41)
	if !it.AtEnd() {
		t.Fatal("Seek past the end not AtEnd")
	}
}

func TestOpenValueSetEmpty(t *testing.T) {
	it := OpenValueSet(nil)
	if !it.AtEnd() {
		t.Fatal("nil set cursor not AtEnd")
	}
	it.Close()
	it = OpenValueSet(relational.NewValueSet(nil))
	if !it.AtEnd() {
		t.Fatal("empty set cursor not AtEnd")
	}
	it.Close()
}

// TestTableAtomOpen exercises the sorted-column indexes directly: candidate
// cursors under empty and non-empty bindings.
func TestTableAtomOpen(t *testing.T) {
	tb := table(t, "R", []string{"a", "b"},
		[]int64{1, 10}, []int64{1, 20}, []int64{2, 10}, []int64{1, 10})
	atom := NewTableAtom(tb)
	pos := map[string]int{"a": 0, "b": 1}

	it, err := atom.Open("a", &prefixBinding{pos: pos})
	if err != nil {
		t.Fatal(err)
	}
	var as []relational.Value
	for ; !it.AtEnd(); it.Next() {
		as = append(as, it.Key())
	}
	it.Close()
	if !reflect.DeepEqual(as, []relational.Value{1, 2}) {
		t.Fatalf("unbound a cursor = %v", as)
	}

	it, err = atom.Open("b", &prefixBinding{pos: pos, tuple: relational.Tuple{1}})
	if err != nil {
		t.Fatal(err)
	}
	var bs []relational.Value
	for ; !it.AtEnd(); it.Next() {
		bs = append(bs, it.Key())
	}
	it.Close()
	if !reflect.DeepEqual(bs, []relational.Value{10, 20}) {
		t.Fatalf("b under a=1 = %v", bs)
	}

	// A binding with no matching rows yields an empty cursor.
	it, err = atom.Open("b", &prefixBinding{pos: pos, tuple: relational.Tuple{99}})
	if err != nil {
		t.Fatal(err)
	}
	if !it.AtEnd() {
		t.Fatalf("b under a=99 should be empty, got %v", it.Key())
	}
	it.Close()

	if _, err := atom.Open("zz", &prefixBinding{pos: pos}); err == nil {
		t.Error("unknown attribute accepted")
	}
}

// TestTableAtomWideTable covers the seed's silent bitmask truncation: bound
// columns past bit 32 now index correctly, and tables wider than 64 columns
// are rejected instead of silently colliding.
func TestTableAtomWideTable(t *testing.T) {
	attrs40 := make([]string, 40)
	for i := range attrs40 {
		attrs40[i] = fmt.Sprintf("c%02d", i)
	}
	tb := relational.NewTable("W", relational.MustSchema(attrs40...))
	for r := 0; r < 3; r++ {
		row := make(relational.Tuple, 40)
		for i := range row {
			row[i] = relational.Value(r*100 + i)
		}
		tb.MustAppend(row...)
	}
	res, err := GenericJoin([]Atom{NewTableAtom(tb)}, attrs40)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 3 {
		t.Fatalf("40-column self join = %d tuples want 3", len(res.Tuples))
	}

	attrs65 := make([]string, 65)
	for i := range attrs65 {
		attrs65[i] = fmt.Sprintf("d%02d", i)
	}
	wide := relational.NewTable("TooWide", relational.MustSchema(attrs65...))
	_, err = GenericJoin([]Atom{NewTableAtom(wide)}, attrs65)
	if err == nil || !strings.Contains(err.Error(), "64") {
		t.Fatalf("65-column table accepted (err = %v)", err)
	}
}

func TestTrieAtomOpen(t *testing.T) {
	tb := table(t, "R", []string{"a", "b"},
		[]int64{1, 10}, []int64{1, 20}, []int64{2, 30})
	tr, err := NewTrie(tb, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	atom := NewTrieAtom("R", tr)
	pos := map[string]int{"a": 0, "b": 1}

	it, err := atom.Open("b", &prefixBinding{pos: pos, tuple: relational.Tuple{1}})
	if err != nil {
		t.Fatal(err)
	}
	var bs []relational.Value
	for ; !it.AtEnd(); it.Next() {
		bs = append(bs, it.Key())
	}
	it.Close()
	if !reflect.DeepEqual(bs, []relational.Value{10, 20}) {
		t.Fatalf("b under a=1 = %v", bs)
	}

	// Prefix value absent from the trie: empty cursor, not an error.
	it, err = atom.Open("b", &prefixBinding{pos: pos, tuple: relational.Tuple{7}})
	if err != nil {
		t.Fatal(err)
	}
	if !it.AtEnd() {
		t.Fatal("missing prefix should yield empty cursor")
	}
	it.Close()

	// Opening a level below an unbound prefix is a contract violation.
	if _, err := atom.Open("b", &prefixBinding{pos: pos}); err == nil {
		t.Error("unbound prefix accepted")
	}
	if _, err := atom.Open("zz", &prefixBinding{pos: pos}); err == nil {
		t.Error("unknown attribute accepted")
	}
}

// TestMixedAtomKinds drives one join over three different Atom
// implementations at once — the executors must not care.
func TestMixedAtomKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	ts := triangleTables(t, rng, 30, 6)
	want := nestedLoopTriangle(ts)

	trS, err := NewTrie(ts[1], []string{"b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	sel := make([]relational.Value, 0, 8)
	for v := relational.Value(0); v < 8; v++ {
		sel = append(sel, v)
	}
	atoms := []Atom{
		NewTableAtom(ts[0]),
		NewTrieAtom("S", trS),
		NewTableAtom(ts[2]),
		NewSetAtom("selA", "a", sel), // no-op selection covering the domain
	}
	got := make(map[[3]relational.Value]bool)
	if _, err := GenericJoinStream(atoms, []string{"a", "b", "c"}, func(tu relational.Tuple) bool {
		got[[3]relational.Value{tu[0], tu[1], tu[2]}] = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mixed atoms: %d tuples, brute force %d", len(got), len(want))
	}
}

// TestStreamMatchesMaterializeAndParallel pins the three wcoj executors to
// one another on random triangle instances, including stats accounting.
func TestStreamMatchesMaterializeAndParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(271))
	for trial := 0; trial < 15; trial++ {
		ts := triangleTables(t, rng, 20+rng.Intn(60), 2+rng.Intn(8))
		order := []string{"a", "b", "c"}
		mk := func() []Atom {
			return []Atom{NewTableAtom(ts[0]), NewTableAtom(ts[1]), NewTableAtom(ts[2])}
		}
		mat, err := GenericJoin(mk(), order)
		if err != nil {
			t.Fatal(err)
		}
		var streamed []relational.Tuple
		st, err := GenericJoinStream(mk(), order, func(tu relational.Tuple) bool {
			streamed = append(streamed, tu.Clone())
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		par, err := GenericJoinParallelOpts(mk(), order, ParallelOpts{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(streamed, mat.Tuples) || !reflect.DeepEqual(streamed, par.Tuples) {
			t.Fatalf("trial %d: stream %d / materialize %d / parallel %d tuples (or order differs)",
				trial, len(streamed), len(mat.Tuples), len(par.Tuples))
		}
		if !reflect.DeepEqual(st.StageSizes, mat.Stats.StageSizes) ||
			!reflect.DeepEqual(st.StageSizes, par.Stats.StageSizes) {
			t.Fatalf("trial %d: stage sizes %v / %v / %v",
				trial, st.StageSizes, mat.Stats.StageSizes, par.Stats.StageSizes)
		}
		if st.Intersections != par.Stats.Intersections || st.Seeks != par.Stats.Seeks {
			t.Fatalf("trial %d: work stats differ: %+v vs %+v", trial, st, par.Stats)
		}
	}
}
