package wcoj

import (
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/datagen"
	"repro/internal/relational"
)

// skewAtoms builds the atoms and order for a datagen.Skewed instance: the
// two-table chain R(a,b) ⋈ S(b,c) whose first attribute has one hot key.
func skewAtoms(tables []*relational.Table) ([]Atom, []string) {
	return []Atom{NewTableAtom(tables[0]), NewTableAtom(tables[1])}, []string{"a", "b", "c"}
}

// TestSkewedMatchesSerial is the equivalence oracle for recursive morsels:
// on a heavily skewed first attribute — the workload that actually triggers
// within-key splitting — the parallel executor must reproduce the serial
// executor's tuple sequence and statistics exactly, at every worker count,
// splits or not.
func TestSkewedMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	atoms, order := skewAtoms(datagen.Skewed(rng, datagen.SkewedConfig{Keys: 32, Rows: 1500, Fanout: 3}))
	serial, err := GenericJoin(atoms, order)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Stats.Output == 0 {
		t.Fatal("skewed instance produced no tuples; test is vacuous")
	}
	for _, workers := range []int{1, 2, 8} {
		par, err := GenericJoinParallelOpts(atoms, order, ParallelOpts{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(par.Tuples, serial.Tuples) {
			t.Fatalf("workers=%d: parallel tuples differ from serial (%d vs %d)",
				workers, len(par.Tuples), len(serial.Tuples))
		}
		if !reflect.DeepEqual(par.Stats.StageSizes, serial.Stats.StageSizes) ||
			par.Stats.Intersections != serial.Stats.Intersections ||
			par.Stats.Seeks != serial.Stats.Seeks ||
			par.Stats.Batches != serial.Stats.Batches ||
			par.Stats.Output != serial.Stats.Output {
			t.Fatalf("workers=%d: stats diverge:\nparallel %+v\nserial   %+v",
				workers, par.Stats, serial.Stats)
		}
	}
}

// TestSkewedZipfMatchesSerial runs the same oracle over the Zipf-law key
// distribution, workers fixed at 8.
func TestSkewedZipfMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	atoms, order := skewAtoms(datagen.Skewed(rng, datagen.SkewedConfig{Keys: 32, Rows: 1500, Zipf: true}))
	serial, err := GenericJoin(atoms, order)
	if err != nil {
		t.Fatal(err)
	}
	par, err := GenericJoinParallelOpts(atoms, order, ParallelOpts{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(par.Tuples, serial.Tuples) {
		t.Fatalf("parallel tuples differ from serial (%d vs %d)", len(par.Tuples), len(serial.Tuples))
	}
}

// TestSkewedSplitsAndSteals pins the scheduler's observable response to
// skew: with the hot key owning ~90% of the join and seven of eight
// workers starved, the run must shed sub-morsels (Splits > 0) and the
// starved workers must claim work from other deques (Steals > 0), with
// the serial result.
//
// The instance is sized so the hot key's subtree takes tens of
// milliseconds: on a single-CPU box the split gate can only observe
// starving workers after the runtime has preempted the grinding worker
// and let the others drain their morsels and park, which needs the grind
// to outlast a few preemption quanta. On multi-core boxes the starved
// workers park within microseconds and any size would do.
func TestSkewedSplitsAndSteals(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	atoms, order := skewAtoms(datagen.Skewed(rng, datagen.SkewedConfig{Keys: 32, Rows: 50_000, Fanout: 4}))
	serial, err := GenericJoin(atoms, order)
	if err != nil {
		t.Fatal(err)
	}
	par, err := GenericJoinParallelOpts(atoms, order, ParallelOpts{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if par.Stats.Splits == 0 {
		t.Error("hot-key run recorded no recursive splits — skew response inert")
	}
	if par.Stats.Steals == 0 {
		t.Error("hot-key run recorded no steals — shed sub-morsels never moved")
	}
	if !reflect.DeepEqual(par.Tuples, serial.Tuples) {
		t.Fatal("split run disagrees with serial")
	}
}

// TestSerialHasNoSplitsOrSteals pins the scheduling counters' serial
// meaning: the serial executor never splits or steals, and a single-worker
// parallel run never steals.
func TestSerialHasNoSplitsOrSteals(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	atoms, order := skewAtoms(datagen.Skewed(rng, datagen.SkewedConfig{Keys: 16, Rows: 500}))
	serial, err := GenericJoin(atoms, order)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Stats.Splits != 0 || serial.Stats.Steals != 0 {
		t.Fatalf("serial run reported Splits=%d Steals=%d", serial.Stats.Splits, serial.Stats.Steals)
	}
	par, err := GenericJoinParallelOpts(atoms, order, ParallelOpts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if par.Stats.Steals != 0 {
		t.Fatalf("single-worker run reported Steals=%d", par.Stats.Steals)
	}
}

// TestTinyKeySpaceFansOut pins the adaptive morsel sizing's small-key-space
// behaviour: when the first attribute has no more keys than workers, every
// key must become its own root morsel so all workers can engage — the
// sizing must not batch a tiny key space into fewer morsels than workers.
func TestTinyKeySpaceFansOut(t *testing.T) {
	const workers = 8
	// 8 distinct a-keys, uniform; b fans out so each key carries real work.
	r := relational.NewTable("R", relational.MustSchema("a", "b"))
	s := relational.NewTable("S", relational.MustSchema("b", "c"))
	for a := 0; a < workers; a++ {
		for j := 0; j < 20; j++ {
			b := relational.Value(100 + a*20 + j)
			r.MustAppend(relational.Value(a), b)
			s.MustAppend(b, relational.Value(10_000+a*20+j))
		}
	}
	atoms := []Atom{NewTableAtom(r), NewTableAtom(s)}
	order := []string{"a", "b", "c"}

	var (
		emitted atomic.Int64
		rootsMu sync.Mutex
		roots   = make(map[int32]bool)
	)
	_, err := GenericJoinParallelMorsels(atoms, order, ParallelOpts{Workers: workers},
		func(int) func(OrdKey, relational.Tuple) bool {
			return func(ord OrdKey, _ relational.Tuple) bool {
				emitted.Add(1)
				rootsMu.Lock()
				roots[ord[0]] = true
				rootsMu.Unlock()
				return true
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != workers {
		t.Fatalf("%d keys spread over %d root morsels, want %d (one key per morsel)",
			workers, len(roots), workers)
	}
	serial, err := GenericJoin(atoms, order)
	if err != nil {
		t.Fatal(err)
	}
	if int(emitted.Load()) != serial.Stats.Output {
		t.Fatalf("parallel emitted %d tuples, serial %d", emitted.Load(), serial.Stats.Output)
	}
}

// TestCancelLatencyInsideLeafBatch pins cancellation latency within the
// batched leaf loop: on a single-attribute join whose leaf intersection
// arrives in 64-wide vectors, the stop flag must be honoured per value —
// flipping it at the first emission allows no second emission even though
// the current batch still holds dozens of survivors.
func TestCancelLatencyInsideLeafBatch(t *testing.T) {
	r := relational.NewTable("R", relational.MustSchema("a"))
	s := relational.NewTable("S", relational.MustSchema("a"))
	for i := 0; i < 4096; i++ {
		r.MustAppend(relational.Value(i))
		s.MustAppend(relational.Value(i))
	}
	atoms := []Atom{NewTableAtom(r), NewTableAtom(s)}

	var cancel atomic.Bool
	emitted := 0
	stats, err := GenericJoinStreamOpts(atoms, []string{"a"}, StreamOpts{Cancel: &cancel}, func(relational.Tuple) bool {
		emitted++
		cancel.Store(true)
		return true // only the flag may stop the run
	})
	if err != nil {
		t.Fatal(err)
	}
	if emitted != 1 {
		t.Fatalf("emitted %d tuples after in-batch cancellation, want exactly 1", emitted)
	}
	if stats.Output != 1 {
		t.Fatalf("stats.Output = %d want 1", stats.Output)
	}
	if stats.Batches >= 64 {
		t.Fatalf("cancelled run delivered %d batches — leaf loop did not stop within the batch region", stats.Batches)
	}
}

// BenchmarkSkewedMorselScaling is the skewed chain join, serial vs
// morsel-parallel. Run with -cpu 1,4: recursive splits keep the hot key
// from serializing onto one worker, so the speedup tracks the worker
// count.
func BenchmarkSkewedMorselScaling(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	atoms, order := skewAtoms(datagen.Skewed(rng, datagen.SkewedConfig{}))
	count := func(relational.Tuple) bool { return true }

	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := GenericJoinStream(atoms, order, count); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Workers 0 resolves to GOMAXPROCS, which -cpu sets.
			if _, err := GenericJoinParallelStreamOpts(atoms, order, ParallelOpts{}, count); err != nil {
				b.Fatal(err)
			}
		}
	})
}
