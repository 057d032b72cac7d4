package wcoj

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/relational"
)

// benchTriangle is the AGM worst-case triangle: three k²-row grid relations
// with a k³-tuple join.
func benchTriangle(k int) []*relational.Table {
	grid := func(name, x, y string) *relational.Table {
		t := relational.NewTable(name, relational.MustSchema(x, y))
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				t.MustAppend(relational.Value(i), relational.Value(j))
			}
		}
		return t
	}
	return []*relational.Table{grid("R", "a", "b"), grid("S", "b", "c"), grid("T", "a", "c")}
}

const benchK = 16

// BenchmarkGenericJoinStream measures the cursor-based streaming executor:
// after the per-atom indexes warm up, the only steady-state allocations are
// the executor's own setup — no per-candidate ValueSets, no stage
// materialization, no result tuples.
func BenchmarkGenericJoinStream(b *testing.B) {
	ts := benchTriangle(benchK)
	atoms := []Atom{NewTableAtom(ts[0]), NewTableAtom(ts[1]), NewTableAtom(ts[2])}
	order := []string{"a", "b", "c"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		if _, err := GenericJoinStream(atoms, order, func(relational.Tuple) bool {
			count++
			return true
		}); err != nil {
			b.Fatal(err)
		}
		if count != benchK*benchK*benchK {
			b.Fatalf("output %d", count)
		}
	}
}

// BenchmarkGenericJoinMaterialized is the preserved materializing baseline:
// the same executor, but every result tuple is cloned and collected — the
// allocation cost the streaming path avoids.
func BenchmarkGenericJoinMaterialized(b *testing.B) {
	ts := benchTriangle(benchK)
	atoms := []Atom{NewTableAtom(ts[0]), NewTableAtom(ts[1]), NewTableAtom(ts[2])}
	order := []string{"a", "b", "c"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := GenericJoin(atoms, order)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Tuples) != benchK*benchK*benchK {
			b.Fatalf("output %d", len(res.Tuples))
		}
	}
}

// BenchmarkLeapfrogTriejoin keeps the trie-backed path honest against the
// index-backed streaming executor above.
func BenchmarkLeapfrogTriejoin(b *testing.B) {
	ts := benchTriangle(benchK)
	order := []string{"a", "b", "c"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		if _, err := LeapfrogTriejoin(ts, order, func(relational.Tuple) bool {
			count++
			return true
		}); err != nil {
			b.Fatal(err)
		}
		if count != benchK*benchK*benchK {
			b.Fatal("bad output")
		}
	}
}

// benchGrid is a 4-attribute chain of k²-row grid relations — the longer
// pipeline shape (deeper recursion, smaller emit fan-out per key) that
// complements the triangle.
func benchGrid(k int) []*relational.Table {
	attrs := []string{"a0", "a1", "a2", "a3"}
	var out []*relational.Table
	for i := 0; i < 3; i++ {
		t := relational.NewTable(fmt.Sprintf("G%d", i), relational.MustSchema(attrs[i], attrs[i+1]))
		for x := 0; x < k; x++ {
			for y := 0; y < k; y++ {
				t.MustAppend(relational.Value(x), relational.Value(y))
			}
		}
		out = append(out, t)
	}
	return out
}

// BenchmarkGenericJoinParallel measures the morsel-driven parallel
// executor streaming the triangle join. Workers follow GOMAXPROCS, so
// running with -cpu 1,4 compares single-worker overhead against the
// multicore speedup over BenchmarkGenericJoinStream.
func BenchmarkGenericJoinParallel(b *testing.B) {
	ts := benchTriangle(benchK)
	atoms := []Atom{NewTableAtom(ts[0]), NewTableAtom(ts[1]), NewTableAtom(ts[2])}
	order := []string{"a", "b", "c"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var count atomic.Int64
		if _, err := GenericJoinParallelStreamOpts(atoms, order, ParallelOpts{}, func(relational.Tuple) bool {
			count.Add(1)
			return true
		}); err != nil {
			b.Fatal(err)
		}
		if count.Load() != benchK*benchK*benchK {
			b.Fatalf("output %d", count.Load())
		}
	}
}

// BenchmarkGenericJoinStreamGrid / BenchmarkGenericJoinParallelGrid pit
// the serial and morsel executors against the chain shape.
func BenchmarkGenericJoinStreamGrid(b *testing.B) {
	ts := benchGrid(24)
	atoms := []Atom{NewTableAtom(ts[0]), NewTableAtom(ts[1]), NewTableAtom(ts[2])}
	order := []string{"a0", "a1", "a2", "a3"}
	want := 24 * 24 * 24 * 24
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		if _, err := GenericJoinStream(atoms, order, func(relational.Tuple) bool {
			count++
			return true
		}); err != nil {
			b.Fatal(err)
		}
		if count != want {
			b.Fatalf("output %d", count)
		}
	}
}

func BenchmarkGenericJoinParallelGrid(b *testing.B) {
	ts := benchGrid(24)
	atoms := []Atom{NewTableAtom(ts[0]), NewTableAtom(ts[1]), NewTableAtom(ts[2])}
	order := []string{"a0", "a1", "a2", "a3"}
	want := int64(24 * 24 * 24 * 24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var count atomic.Int64
		if _, err := GenericJoinParallelStreamOpts(atoms, order, ParallelOpts{}, func(relational.Tuple) bool {
			count.Add(1)
			return true
		}); err != nil {
			b.Fatal(err)
		}
		if count.Load() != want {
			b.Fatalf("output %d", count.Load())
		}
	}
}

// BenchmarkGenericJoinParallelLimit1 measures the Exists/LIMIT 1 path
// under the parallel executor: all workers must stand down after the first
// emission, so op time stays near-constant no matter the full result size
// (the old breadth-first executor would have materialized every stage).
func BenchmarkGenericJoinParallelLimit1(b *testing.B) {
	ts := benchTriangle(benchK)
	atoms := []Atom{NewTableAtom(ts[0]), NewTableAtom(ts[1]), NewTableAtom(ts[2])}
	order := []string{"a", "b", "c"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink := &limitedSink{limit: 1}
		if _, err := GenericJoinParallelStreamOpts(atoms, order, ParallelOpts{}, sink.yield); err != nil {
			b.Fatal(err)
		}
		if len(sink.tuples) != 1 {
			b.Fatalf("emitted %d", len(sink.tuples))
		}
	}
}
