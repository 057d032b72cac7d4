package wcoj

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/faultpoint"
	"repro/internal/relational"
)

// TestParallelMatchesSerial: the parallel executor must produce the exact
// tuple sequence and statistics of the serial one.
func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	for trial := 0; trial < 20; trial++ {
		ts := triangleTables(t, rng, 40+rng.Intn(120), 3+rng.Intn(10))
		mk := func() []Atom {
			return []Atom{NewTableAtom(ts[0]), NewTableAtom(ts[1]), NewTableAtom(ts[2])}
		}
		order := []string{"a", "b", "c"}
		serial, err := GenericJoin(mk(), order)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 0} {
			par, err := GenericJoinParallelOpts(mk(), order, ParallelOpts{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(par.Tuples, serial.Tuples) {
				t.Fatalf("trial %d workers=%d: %d tuples vs serial %d (or order differs)",
					trial, workers, len(par.Tuples), len(serial.Tuples))
			}
			if !reflect.DeepEqual(par.Stats.StageSizes, serial.Stats.StageSizes) {
				t.Fatalf("trial %d workers=%d: stage sizes %v vs %v",
					trial, workers, par.Stats.StageSizes, serial.Stats.StageSizes)
			}
			if par.Stats.Intersections != serial.Stats.Intersections {
				t.Fatalf("trial %d workers=%d: intersections %d vs %d",
					trial, workers, par.Stats.Intersections, serial.Stats.Intersections)
			}
		}
	}
}

// TestParallelSharedAtoms exercises the race-prone path: the same atom
// instances are shared by all workers, so lazy index building must be
// synchronized (run with -race to check).
func TestParallelSharedAtoms(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ts := triangleTables(t, rng, 400, 12)
	atoms := []Atom{NewTableAtom(ts[0]), NewTableAtom(ts[1]), NewTableAtom(ts[2])}
	order := []string{"a", "b", "c"}
	par, err := GenericJoinParallelOpts(atoms, order, ParallelOpts{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := GenericJoin(
		[]Atom{NewTableAtom(ts[0]), NewTableAtom(ts[1]), NewTableAtom(ts[2])}, order)
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Tuples) != len(serial.Tuples) {
		t.Fatalf("parallel %d vs serial %d", len(par.Tuples), len(serial.Tuples))
	}
}

func TestParallelValidation(t *testing.T) {
	tb := table(t, "R", []string{"a", "b"}, []int64{1, 2})
	if _, err := GenericJoinParallelOpts([]Atom{NewTableAtom(tb)}, []string{"a", "a"}, ParallelOpts{Workers: 4}); err == nil {
		t.Error("duplicate attribute accepted")
	}
	if _, err := GenericJoinParallelOpts([]Atom{NewTableAtom(tb)}, []string{"a", "b", "c"}, ParallelOpts{Workers: 4}); err == nil {
		t.Error("uncovered attribute accepted")
	}
}

func TestParallelWorkerCountEdgeCases(t *testing.T) {
	// More workers than tuples, and chains long enough to pass the
	// threshold on later stages.
	k := 3
	var tables []*relational.Table
	order := []string{"a0", "a1", "a2", "a3"}
	for i := 0; i < k; i++ {
		tb := relational.NewTable(fmt.Sprintf("R%d", i), relational.MustSchema(order[i], order[i+1]))
		for x := 0; x < 12; x++ {
			for y := 0; y < 12; y++ {
				tb.MustAppend(relational.Value(x), relational.Value(y))
			}
		}
		tables = append(tables, tb)
	}
	mk := func() []Atom {
		var out []Atom
		for _, tb := range tables {
			out = append(out, NewTableAtom(tb))
		}
		return out
	}
	serial, err := GenericJoin(mk(), order)
	if err != nil {
		t.Fatal(err)
	}
	par, err := GenericJoinParallelOpts(mk(), order, ParallelOpts{Workers: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Tuples, par.Tuples) {
		t.Fatalf("parallel output differs: %d vs %d", len(par.Tuples), len(serial.Tuples))
	}
}

// TestMorselOptsMatchSerial runs the morsel executor across worker counts
// (including 1, which still exercises the full driver/queue machinery via
// GenericJoinParallelOpts); collected output and merged statistics must
// equal the serial executor exactly.
func TestMorselOptsMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		ts := triangleTables(t, rng, 40+rng.Intn(120), 3+rng.Intn(10))
		mk := func() []Atom {
			return []Atom{NewTableAtom(ts[0]), NewTableAtom(ts[1]), NewTableAtom(ts[2])}
		}
		order := []string{"a", "b", "c"}
		serial, err := GenericJoin(mk(), order)
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []ParallelOpts{
			{Workers: 1}, {Workers: 2}, {Workers: 8},
		} {
			par, err := GenericJoinParallelOpts(mk(), order, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(par.Tuples, serial.Tuples) {
				t.Fatalf("trial %d %+v: %d tuples vs serial %d (or order differs)",
					trial, opts, len(par.Tuples), len(serial.Tuples))
			}
			if !reflect.DeepEqual(par.Stats.StageSizes, serial.Stats.StageSizes) ||
				par.Stats.Intersections != serial.Stats.Intersections ||
				par.Stats.Seeks != serial.Stats.Seeks ||
				par.Stats.Output != serial.Stats.Output ||
				par.Stats.PeakIntermediate != serial.Stats.PeakIntermediate {
				t.Fatalf("trial %d %+v: stats %+v vs serial %+v", trial, opts, par.Stats, serial.Stats)
			}
		}
	}
}

// TestMorselStreamMatchesSerial checks the unordered streaming entry point
// against the serial executor as a set.
func TestMorselStreamMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ts := triangleTables(t, rng, 300, 12)
	atoms := []Atom{NewTableAtom(ts[0]), NewTableAtom(ts[1]), NewTableAtom(ts[2])}
	order := []string{"a", "b", "c"}
	serial, err := GenericJoin(atoms, order)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[[3]relational.Value]bool, len(serial.Tuples))
	for _, tu := range serial.Tuples {
		want[[3]relational.Value{tu[0], tu[1], tu[2]}] = true
	}
	var mu sync.Mutex
	got := make(map[[3]relational.Value]bool)
	stats, err := GenericJoinParallelStreamOpts(atoms, order, ParallelOpts{Workers: 8}, func(tu relational.Tuple) bool {
		mu.Lock()
		got[[3]relational.Value{tu[0], tu[1], tu[2]}] = true
		mu.Unlock()
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streamed set differs: %d vs %d", len(got), len(want))
	}
	if stats.Output != len(serial.Tuples) || stats.Intersections != serial.Stats.Intersections {
		t.Fatalf("stream stats %+v vs serial %+v", stats, serial.Stats)
	}
}

// limitedSink is a limit expressed the only way the executor knows one: a
// sink that says stop. It claims emission slots from one atomic counter —
// as the core layer's post-validation limit does — keeps the tuples that
// won a slot, and declines from the limit-th on.
type limitedSink struct {
	limit   int64
	claimed atomic.Int64
	mu      sync.Mutex
	tuples  []relational.Tuple
}

func (l *limitedSink) yield(t relational.Tuple) bool {
	n := l.claimed.Add(1)
	if n > l.limit {
		return false
	}
	l.mu.Lock()
	l.tuples = append(l.tuples, t.Clone())
	l.mu.Unlock()
	return n < l.limit
}

// TestMorselLimit: a sink that stops after limit tuples must have accepted
// exactly min(limit, |result|) tuples, each of which belongs to the full
// answer, and the executor must have offered it at most one over-claim per
// other worker.
func TestMorselLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ts := triangleTables(t, rng, 300, 10)
	atoms := []Atom{NewTableAtom(ts[0]), NewTableAtom(ts[1]), NewTableAtom(ts[2])}
	order := []string{"a", "b", "c"}
	serial, err := GenericJoin(atoms, order)
	if err != nil {
		t.Fatal(err)
	}
	full := make(map[[3]relational.Value]bool, len(serial.Tuples))
	for _, tu := range serial.Tuples {
		full[[3]relational.Value{tu[0], tu[1], tu[2]}] = true
	}
	n := len(serial.Tuples)
	if n < 10 {
		t.Fatalf("instance too small: %d tuples", n)
	}
	for _, limit := range []int{1, 5, n, n + 100} {
		for _, workers := range []int{1, 2, 8} {
			sink := &limitedSink{limit: int64(limit)}
			stats, err := GenericJoinParallelStreamOpts(atoms, order, ParallelOpts{Workers: workers}, sink.yield)
			if err != nil {
				t.Fatal(err)
			}
			want := limit
			if want > n {
				want = n
			}
			if len(sink.tuples) != want {
				t.Fatalf("limit=%d workers=%d: %d tuples want %d", limit, workers, len(sink.tuples), want)
			}
			if stats.Output < want || stats.Output > want+workers-1 {
				t.Fatalf("limit=%d workers=%d: Output=%d want %d..%d", limit, workers, stats.Output, want, want+workers-1)
			}
			for _, tu := range sink.tuples {
				if !full[[3]relational.Value{tu[0], tu[1], tu[2]}] {
					t.Fatalf("limit=%d workers=%d: tuple %v not in full answer", limit, workers, tu)
				}
			}
		}
	}
}

// TestMorselLimitShortCircuits: a sink that stops at the first tuple must
// terminate the run without doing more than a sliver of the full run's
// intersection work — the property the old breadth-first executor could
// not provide.
func TestMorselLimitShortCircuits(t *testing.T) {
	k := 48 // k^3 = 110592 results, ~k^2 intersections on a full run
	ts := benchTriangle(k)
	atoms := []Atom{NewTableAtom(ts[0]), NewTableAtom(ts[1]), NewTableAtom(ts[2])}
	order := []string{"a", "b", "c"}
	fullStats, err := GenericJoinStream(atoms, order, func(relational.Tuple) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	sink := &limitedSink{limit: 1}
	stats, err := GenericJoinParallelStreamOpts(atoms, order, ParallelOpts{Workers: 4}, sink.yield)
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.tuples) != 1 {
		t.Fatalf("limit=1: %d tuples", len(sink.tuples))
	}
	// Each worker can at most finish the partial tuple it was exploring
	// when the limit hit; allow generous slack (a few keys per worker)
	// while still proving the run did not enumerate the k^2 space.
	if max := fullStats.Intersections / 10; stats.Intersections > max {
		t.Fatalf("limit=1 did %d intersections (full run: %d, want <= %d)",
			stats.Intersections, fullStats.Intersections, max)
	}
	if stats.Output < 1 || stats.Output > 4 {
		t.Fatalf("limit=1 Output=%d, want 1..4", stats.Output)
	}
}

// TestMorselEmptyAndDegenerate covers the edge shapes: empty intersection,
// single attribute, and the nullary join.
func TestMorselEmptyAndDegenerate(t *testing.T) {
	// Empty top-level intersection: R.a = {1}, T.a = {2}.
	r := table(t, "R", []string{"a", "b"}, []int64{1, 10})
	s := table(t, "S", []string{"b", "c"}, []int64{10, 5})
	tt := table(t, "T", []string{"a", "c"}, []int64{2, 5})
	res, err := GenericJoinParallelOpts(
		[]Atom{NewTableAtom(r), NewTableAtom(s), NewTableAtom(tt)},
		[]string{"a", "b", "c"}, ParallelOpts{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 0 {
		t.Fatalf("empty join returned %d tuples", len(res.Tuples))
	}
	// Single attribute.
	u := table(t, "U", []string{"a"}, []int64{1}, []int64{2}, []int64{3})
	res, err = GenericJoinParallelOpts([]Atom{NewTableAtom(u)}, []string{"a"}, ParallelOpts{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 3 {
		t.Fatalf("unary join = %d tuples", len(res.Tuples))
	}
	// Errors still surface.
	if _, err := GenericJoinParallelStreamOpts([]Atom{NewTableAtom(u)}, []string{"a", "a"}, ParallelOpts{Workers: 4}, func(relational.Tuple) bool { return true }); err == nil {
		t.Error("duplicate attribute accepted")
	}
}

// TestMorselSharedAtomsRace hammers the concurrency-sensitive surface
// under -race: several morsel-parallel joins run at once over the same
// atom instances, forcing concurrent lazy index builds and pooled cursor
// traffic, while limiting sinks cancel some runs mid-flight.
func TestMorselSharedAtomsRace(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ts := triangleTables(t, rng, 500, 14)
	atoms := []Atom{NewTableAtom(ts[0]), NewTableAtom(ts[1]), NewTableAtom(ts[2])}
	orders := [][]string{{"a", "b", "c"}, {"b", "c", "a"}, {"c", "a", "b"}}
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			yield := func(relational.Tuple) bool { return true }
			if i%2 == 0 {
				yield = (&limitedSink{limit: 7}).yield
			}
			if _, err := GenericJoinParallelStreamOpts(atoms, orders[i%len(orders)], ParallelOpts{Workers: 4}, yield); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
}

// TestStatsMergeCoversAllFields pins GenericJoinStats.Merge to the struct:
// every numeric counter must be folded in, so adding a field without a
// merge rule fails here instead of silently dropping parallel workers'
// counts (the bug the old expandStageParallel had with everything but
// Intersections and Seeks).
func TestStatsMergeCoversAllFields(t *testing.T) {
	known := map[string]bool{
		"Order":              true, // taken from either side
		"StageSizes":         true, // elementwise sum
		"PeakIntermediate":   true, // recomputed from merged StageSizes
		"Output":             true,
		"Intersections":      true,
		"Seeks":              true,
		"Batches":            true,
		"LevelIntersections": true, // elementwise sum
		"LevelSeeks":         true, // elementwise sum
		"LevelBatches":       true, // elementwise sum
		"Splits":             true,
		"Steals":             true,
		"DeadlineStops":      true,
	}
	rt := reflect.TypeOf(GenericJoinStats{})
	for i := 0; i < rt.NumField(); i++ {
		if !known[rt.Field(i).Name] {
			t.Errorf("GenericJoinStats gained field %q: add a rule to Merge and to this test", rt.Field(i).Name)
		}
	}
	a := GenericJoinStats{StageSizes: []int{5, 2}, Output: 3, Intersections: 4, Seeks: 9, Batches: 2, Splits: 1, Steals: 3, DeadlineStops: 1,
		LevelIntersections: []int{3, 1}, LevelSeeks: []int{4, 5}, LevelBatches: []int{0, 2}}
	b := GenericJoinStats{Order: []string{"x", "y"}, StageSizes: []int{1, 7}, Output: 2, Intersections: 1, Seeks: 6, Batches: 5, Splits: 2, Steals: 4, DeadlineStops: 2,
		LevelIntersections: []int{1}, LevelSeeks: []int{2, 4}, LevelBatches: []int{0, 5}}
	a.Merge(&b)
	if !reflect.DeepEqual(a.StageSizes, []int{6, 9}) || a.Output != 5 ||
		a.Intersections != 5 || a.Seeks != 15 || a.PeakIntermediate != 9 ||
		a.Batches != 7 || a.Splits != 3 || a.Steals != 7 || a.DeadlineStops != 3 ||
		!reflect.DeepEqual(a.LevelIntersections, []int{4, 1}) ||
		!reflect.DeepEqual(a.LevelSeeks, []int{6, 9}) ||
		!reflect.DeepEqual(a.LevelBatches, []int{0, 7}) ||
		!reflect.DeepEqual(a.Order, []string{"x", "y"}) {
		t.Fatalf("merged = %+v", a)
	}
	// finalizeLevels rebuilds the scalar totals from the merged levels.
	a.finalizeLevels()
	if a.Intersections != 5 || a.Seeks != 15 || a.Batches != 7 {
		t.Fatalf("finalizeLevels: %+v", a)
	}
}

// TestParallelOpensMatchSerial: the morsel driver is a run like every
// worker, so a parallel run to completion reaches the wcoj.atom.open fault
// point exactly as often as the serial run — the driver's depth-0 opens
// included.
func TestParallelOpensMatchSerial(t *testing.T) {
	ts := benchTriangle(benchK)
	atoms := []Atom{NewTableAtom(ts[0]), NewTableAtom(ts[1]), NewTableAtom(ts[2])}
	order := []string{"a", "b", "c"}
	t.Cleanup(faultpoint.Reset)
	faultpoint.Install()
	if _, err := GenericJoinStream(atoms, order, func(relational.Tuple) bool { return true }); err != nil {
		t.Fatal(err)
	}
	serial := faultpoint.Hits("wcoj.atom.open")
	faultpoint.Install()
	if _, err := GenericJoinParallelStreamOpts(atoms, order, ParallelOpts{Workers: 2}, func(relational.Tuple) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if par := faultpoint.Hits("wcoj.atom.open"); par != serial || serial == 0 {
		t.Fatalf("wcoj.atom.open hits: parallel %d, serial %d", par, serial)
	}
}
