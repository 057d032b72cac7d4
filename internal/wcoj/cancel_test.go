package wcoj

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cachehook"
	"repro/internal/relational"
)

// fullTriangleIntersections runs the triangle join to completion and
// returns its intersection count — the work a cancelled run must beat.
func fullTriangleIntersections(t *testing.T, atoms []Atom, order []string) int {
	t.Helper()
	stats, err := GenericJoinStream(atoms, order, func(relational.Tuple) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	return stats.Intersections
}

// TestStreamCancelShortCircuits is the serial analogue of
// TestMorselLimitShortCircuits for external cancellation: flipping
// StreamOpts.Cancel after the first emission must abandon the run after
// at most one key's work per depth — a small fraction of the full
// enumeration's intersections — while the executor keeps emitting
// nothing after the flag (the emit callback returns true throughout, so
// only the flag can stop the run).
func TestStreamCancelShortCircuits(t *testing.T) {
	ts := benchTriangle(benchK)
	atoms := []Atom{NewTableAtom(ts[0]), NewTableAtom(ts[1]), NewTableAtom(ts[2])}
	order := []string{"a", "b", "c"}
	full := fullTriangleIntersections(t, atoms, order)

	var cancel atomic.Bool
	emitted := 0
	stats, err := GenericJoinStreamOpts(atoms, order, StreamOpts{Cancel: &cancel}, func(relational.Tuple) bool {
		emitted++
		cancel.Store(true)
		return true // only the flag may stop the run
	})
	if err != nil {
		t.Fatal(err)
	}
	if emitted != 1 {
		t.Fatalf("emitted %d tuples after cancellation, want exactly 1 (flag checked per partial tuple)", emitted)
	}
	if stats.Output != 1 {
		t.Fatalf("stats.Output = %d want 1", stats.Output)
	}
	// One key explored at each depth ≈ depth intersections; the full run
	// performs 1 + k + k² of them. Allow a wide margin and still prove
	// the short-circuit.
	if stats.Intersections*10 > full {
		t.Fatalf("cancelled run performed %d intersections, full run %d — not short-circuited", stats.Intersections, full)
	}
}

// TestParallelCancelShortCircuits hammers ParallelOpts.Cancel: with the
// flag flipped at the first delivered tuple, every worker must stop
// within one partial tuple, post-cancel emissions stay bounded by the
// worker count (each may have one claim in flight), and the merged
// partial statistics remain a small fraction of the full run's.
func TestParallelCancelShortCircuits(t *testing.T) {
	ts := benchTriangle(benchK)
	atoms := []Atom{NewTableAtom(ts[0]), NewTableAtom(ts[1]), NewTableAtom(ts[2])}
	order := []string{"a", "b", "c"}
	full := fullTriangleIntersections(t, atoms, order)

	for _, workers := range []int{1, 8} {
		var cancel atomic.Bool
		var emitted atomic.Int64
		stats, err := GenericJoinParallelMorsels(atoms, order,
			ParallelOpts{Workers: workers, StreamOpts: StreamOpts{Cancel: &cancel}},
			func(int) func(OrdKey, relational.Tuple) bool {
				return func(_ OrdKey, _ relational.Tuple) bool {
					emitted.Add(1)
					cancel.Store(true)
					return true
				}
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		// Each worker can deliver at most one tuple that raced the flag.
		if n := emitted.Load(); n < 1 || n > int64(workers) {
			t.Fatalf("workers=%d: %d emissions after cancel, want 1..%d", workers, n, workers)
		}
		if stats.Intersections*4 > full {
			t.Fatalf("workers=%d: cancelled run performed %d intersections, full run %d",
				workers, stats.Intersections, full)
		}
	}
}

// TestParallelCancelNoGoroutineLeak verifies a cancelled morsel run winds
// all its goroutines down — the driver and every worker drain and exit.
func TestParallelCancelNoGoroutineLeak(t *testing.T) {
	ts := benchTriangle(benchK)
	atoms := []Atom{NewTableAtom(ts[0]), NewTableAtom(ts[1]), NewTableAtom(ts[2])}
	order := []string{"a", "b", "c"}

	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		var cancel atomic.Bool
		cancel.Store(true) // cancelled before the run even starts
		if _, err := GenericJoinParallelMorsels(atoms, order,
			ParallelOpts{Workers: 8, StreamOpts: StreamOpts{Cancel: &cancel}},
			func(int) func(OrdKey, relational.Tuple) bool {
				return func(OrdKey, relational.Tuple) bool { return true }
			}); err != nil {
			t.Fatal(err)
		}
	}
	if !settlesTo(before) {
		t.Fatalf("goroutines before=%d after=%d — cancelled runs leak", before, runtime.NumGoroutine())
	}
}

// settlesTo polls until the goroutine count drops back to at most n
// (scheduling may briefly hold exited goroutines on the count).
func settlesTo(n int) bool {
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= n {
			return true
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
	return runtime.NumGoroutine() <= n
}

// TestStreamCheckWithoutCancel: Build.Check is a cancellation contract of its
// own — with no Cancel flag set, a probe that turns true still stops the
// serial run within one poll interval.
func TestStreamCheckWithoutCancel(t *testing.T) {
	ts := benchTriangle(benchK)
	atoms := []Atom{NewTableAtom(ts[0]), NewTableAtom(ts[1]), NewTableAtom(ts[2])}
	order := []string{"a", "b", "c"}
	full, err := GenericJoinStream(atoms, order, func(relational.Tuple) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	dead := false
	emitted := 0
	stats, err := GenericJoinStreamOpts(atoms, order, StreamOpts{Build: cachehook.BuildControl{Check: func() bool { return dead }}}, func(relational.Tuple) bool {
		emitted++
		dead = true
		return true // only the probe may stop the run
	})
	if err != nil {
		t.Fatal(err)
	}
	if emitted == 0 || stats.Output >= full.Output {
		t.Fatalf("emitted %d of %d tuples: the probe never stopped the run", stats.Output, full.Output)
	}
	// The probe is polled once per checkInterval partial tuples, so the run
	// ends within about one interval of the first emission.
	if emitted > 2*checkInterval {
		t.Fatalf("emitted %d tuples after the probe turned true, want at most ~%d", emitted, checkInterval)
	}
}
