package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/relational"
	"repro/internal/wcoj"
)

// tupleSet renders tuples (projected onto cols) as a sorted string set.
func tupleSet(tuples []relational.Tuple, cols []int) []string {
	out := make([]string, 0, len(tuples))
	seen := make(map[string]bool, len(tuples))
	for _, t := range tuples {
		key := make([]relational.Value, len(cols))
		for i, c := range cols {
			key[i] = t[c]
		}
		s := fmt.Sprint(key)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// materializeAtom enumerates an atom's tuples into a physical table, so the
// binary-join baseline can consume virtual XML relations.
func materializeAtom(t *testing.T, a wcoj.Atom) *relational.Table {
	t.Helper()
	tb := relational.NewTable(a.Name(), relational.MustSchema(a.Attrs()...))
	if _, err := wcoj.GenericJoinStream([]wcoj.Atom{a}, a.Attrs(), func(tu relational.Tuple) bool {
		if err := tb.Append(tu); err != nil {
			t.Fatal(err)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return tb
}

// TestExecutorEquivalence joins random multi-model instances — physical
// tables plus the twig's virtual Tag/Edge atoms — through the three
// drivers: the streaming Generic Join (the XML atoms running under
// Leapfrog-style seeking), its materializing wrapper and the parallel
// executor. A conventional binary hash-join plan over the materialized
// atom relations is the cross-model oracle. All four must produce the
// identical tuple set.
func TestExecutorEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 30; trial++ {
		inst, err := datagen.RandomMultiModel(rng, datagen.RandomConfig{Tables: 1 + rng.Intn(2)})
		if err != nil {
			t.Fatal(err)
		}
		q := mustQuery(t, inst)
		atoms := q.atoms(ADPostHoc)
		order := DefaultOrder(q)

		mat, err := wcoj.GenericJoin(atoms, order)
		if err != nil {
			t.Fatal(err)
		}
		var streamed []relational.Tuple
		stStats, err := wcoj.GenericJoinStream(atoms, order, func(tu relational.Tuple) bool {
			streamed = append(streamed, tu.Clone())
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if stStats.Output != len(streamed) {
			t.Fatalf("trial %d: stream stats output %d vs %d", trial, stStats.Output, len(streamed))
		}
		// The morsel driver across worker counts (1 exercises the full
		// driver/queue machinery), over the same shared atom instances —
		// including the virtual XML Tag/Edge atoms.
		for _, workers := range []int{1, 2, 4, 8} {
			res, err := wcoj.GenericJoinParallelOpts(atoms, order, wcoj.ParallelOpts{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Tuples, mat.Tuples) {
				t.Fatalf("trial %d workers=%d: morsel output differs from serial (%d vs %d)",
					trial, workers, len(res.Tuples), len(mat.Tuples))
			}
			if res.Stats.Intersections != mat.Stats.Intersections ||
				!reflect.DeepEqual(res.Stats.StageSizes, mat.Stats.StageSizes) {
				t.Fatalf("trial %d workers=%d: morsel stats %+v vs serial %+v",
					trial, workers, res.Stats, mat.Stats)
			}
		}

		all := make([]int, len(order))
		for i := range all {
			all[i] = i
		}
		want := tupleSet(mat.Tuples, all)
		if !reflect.DeepEqual(tupleSet(streamed, all), want) {
			t.Fatalf("trial %d twig %s: stream disagrees: %d tuples vs %d",
				trial, inst.Pattern, len(streamed), len(mat.Tuples))
		}

		// Binary hash-join baseline over the materialized atom relations.
		tables := make([]*relational.Table, len(atoms))
		for i, a := range atoms {
			tables[i] = materializeAtom(t, a)
		}
		joined, _, err := wcoj.ChainHashJoin("oracle", tables)
		if err != nil {
			t.Fatal(err)
		}
		proj, err := joined.Project("oracle", order...)
		if err != nil {
			t.Fatal(err)
		}
		proj.Dedup()
		var oracle []relational.Tuple
		proj.Rows(func(tu relational.Tuple) bool {
			oracle = append(oracle, tu.Clone())
			return true
		})
		if !reflect.DeepEqual(tupleSet(oracle, all), want) {
			t.Fatalf("trial %d twig %s: binary baseline %d tuples vs wcoj %d",
				trial, inst.Pattern, len(oracle), len(mat.Tuples))
		}
	}
}

// TestMorselXJoinLimitEquivalence runs the full XJoin (validation
// included) morsel-parallel across worker counts against the serial
// oracle, with and without Limit, on random multi-model instances. An
// unlimited run must match the serial result exactly; a limited run must
// return exactly min(Limit, |answers|) tuples, each from the full answer.
func TestMorselXJoinLimitEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 15; trial++ {
		inst, err := datagen.RandomMultiModel(rng, datagen.RandomConfig{Tables: 1 + rng.Intn(2)})
		if err != nil {
			t.Fatal(err)
		}
		q := mustQuery(t, inst)
		serial, err := XJoin(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		full := make(map[string]bool, len(serial.Tuples))
		for _, tu := range serial.Tuples {
			full[fmt.Sprint(tu)] = true
		}
		for _, workers := range []int{1, 2, 8} {
			par, err := XJoin(q, Options{Parallelism: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(par.Tuples, serial.Tuples) {
				t.Fatalf("trial %d workers=%d: parallel XJoin differs (%d vs %d tuples)",
					trial, workers, len(par.Tuples), len(serial.Tuples))
			}
			if par.Stats.ValidationRemoved != serial.Stats.ValidationRemoved {
				t.Fatalf("trial %d workers=%d: removed %d vs %d",
					trial, workers, par.Stats.ValidationRemoved, serial.Stats.ValidationRemoved)
			}
			for _, limit := range []int{1, 3, len(serial.Tuples) + 5} {
				lim, err := XJoin(q, Options{Parallelism: workers, Limit: limit})
				if err != nil {
					t.Fatal(err)
				}
				want := limit
				if want > len(serial.Tuples) {
					want = len(serial.Tuples)
				}
				if len(lim.Tuples) != want {
					t.Fatalf("trial %d workers=%d limit=%d: %d tuples want %d",
						trial, workers, limit, len(lim.Tuples), want)
				}
				for _, tu := range lim.Tuples {
					if !full[fmt.Sprint(tu)] {
						t.Fatalf("trial %d workers=%d limit=%d: %v not in full answer",
							trial, workers, limit, tu)
					}
				}
			}
		}
		// Streamed parallel existence: true iff the query has answers.
		found := false
		if _, err := XJoinStream(q, Options{Parallelism: 4}, func(relational.Tuple) bool {
			found = true
			return false
		}); err != nil {
			t.Fatal(err)
		}
		if found != (len(serial.Tuples) > 0) {
			t.Fatalf("trial %d: parallel exists=%v but %d answers", trial, found, len(serial.Tuples))
		}
	}
}

// TestMorselADModesEquivalence crosses every A-D handling mode with every
// interesting worker count on random multi-model instances: each mode's
// morsel-parallel run must reproduce its own serial oracle exactly —
// tuples in serial order and the executor counters that are defined to be
// scheduling-independent, LeafBatches among them. Run under -race this is
// the PR's whole-pipeline equivalence suite for the stealing scheduler.
func TestMorselADModesEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(60614))
	for trial := 0; trial < 10; trial++ {
		inst, err := datagen.RandomMultiModel(rng, datagen.RandomConfig{Tables: 1 + rng.Intn(2)})
		if err != nil {
			t.Fatal(err)
		}
		q := mustQuery(t, inst)
		for _, mode := range []ADMode{ADLazy, ADPostHoc, ADMaterialized} {
			serial, err := XJoin(q, Options{AD: mode})
			if err != nil {
				t.Fatal(err)
			}
			if serial.Stats.MorselSplits != 0 || serial.Stats.MorselSteals != 0 {
				t.Fatalf("trial %d mode %s: serial run reports scheduler counters %d/%d",
					trial, mode, serial.Stats.MorselSplits, serial.Stats.MorselSteals)
			}
			for _, workers := range []int{1, 2, 8} {
				par, err := XJoin(q, Options{AD: mode, Parallelism: workers})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(par.Tuples, serial.Tuples) {
					t.Fatalf("trial %d mode %s workers=%d: tuples differ (%d vs %d)",
						trial, mode, workers, len(par.Tuples), len(serial.Tuples))
				}
				if par.Stats.LeafBatches != serial.Stats.LeafBatches ||
					!reflect.DeepEqual(par.Stats.StageSizes, serial.Stats.StageSizes) ||
					par.Stats.ValidationRemoved != serial.Stats.ValidationRemoved {
					t.Fatalf("trial %d mode %s workers=%d: counters diverge:\nparallel %+v\nserial   %+v",
						trial, mode, workers, par.Stats, serial.Stats)
				}
			}
		}
	}
}

// TestMorselSharedXMLAtomsRace hammers the virtual XML atoms (Tag/Edge,
// the lazy structix region atoms, and the materialized AD oracle) under
// -race: several morsel-parallel XJoins run concurrently over the same
// query — sharing one set of document indexes AND one lazily built
// structural index — while a serial run streams over them too. The XML
// atoms are read-only after construction and the structix build is
// lock-guarded, so every Open must be race-free.
func TestMorselSharedXMLAtomsRace(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	inst, err := datagen.RandomMultiModel(rng, datagen.RandomConfig{NodeBudget: 150, Tables: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := mustQuery(t, inst)
	serial, err := XJoin(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	modes := []Options{
		{Parallelism: 4},                     // lazy A-D (default)
		{Parallelism: 4, AD: ADMaterialized}, // oracle atoms
		{Parallelism: 4, AD: ADPostHoc},      // edge atoms only
		{Parallelism: 4, Limit: 1},           // lazy A-D + limit race
		{Parallelism: 4, AD: ADLazy},         // second lazy run over the same structix
	}
	var wg sync.WaitGroup
	for i := 0; i < len(modes); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opts := modes[i]
			res, err := XJoin(q, opts)
			if err != nil {
				t.Error(err)
				return
			}
			if opts.Limit == 0 && len(res.Tuples) != len(serial.Tuples) {
				t.Errorf("concurrent run %d: %d tuples want %d", i, len(res.Tuples), len(serial.Tuples))
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := XJoinStream(q, Options{}, func(relational.Tuple) bool { return true }); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
}
