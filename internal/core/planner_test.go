package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/datagen"
	"repro/internal/relational"
)

func TestMinBoundOrderCoversAttrs(t *testing.T) {
	inst, err := datagen.Example34(4)
	if err != nil {
		t.Fatal(err)
	}
	q := mustQuery(t, inst)
	order, err := MinBoundOrder(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkOrder(q, order); err != nil {
		t.Fatalf("min-bound order invalid: %v", err)
	}
}

func TestMinBoundStrategyAgreesOnAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for trial := 0; trial < 25; trial++ {
		inst, err := datagen.RandomMultiModel(rng, datagen.RandomConfig{Tables: rng.Intn(3)})
		if err != nil {
			t.Fatal(err)
		}
		q := mustQuery(t, inst)
		ref, err := XJoin(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		order, err := MinBoundOrder(q)
		if err != nil {
			t.Fatal(err)
		}
		mb, err := XJoin(q, Options{Order: order})
		if err != nil {
			t.Fatal(err)
		}
		if !EqualResults(ref, mb) {
			t.Fatalf("trial %d: min-bound order changed answers (%d vs %d)",
				trial, len(mb.Tuples), len(ref.Tuples))
		}
	}
}

// TestMinBoundBeatsWorstOrder: on the Figure-3 workload the min-bound
// order's guaranteed stage bounds must never exceed those of a pessimal
// hand-picked order, and its actual peak must stay at the optimum.
func TestMinBoundBeatsWorstOrder(t *testing.T) {
	inst, err := datagen.Example34(5)
	if err != nil {
		t.Fatal(err)
	}
	q := mustQuery(t, inst)
	order, err := MinBoundOrder(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := XJoin(q, Options{Order: order})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PeakIntermediate > 5*5 {
		t.Errorf("min-bound peak = %d exceeds n^2", res.Stats.PeakIntermediate)
	}
	// A pessimal order expands the twig's unconstrained tags first.
	bad := []string{"B", "D", "G", "E", "H", "C", "F", "A"}
	badRes, err := XJoin(q, Options{Order: bad})
	if err != nil {
		t.Fatal(err)
	}
	if !EqualResults(res, badRes) {
		t.Fatal("orders disagree on answers")
	}
	if badRes.Stats.PeakIntermediate < res.Stats.PeakIntermediate {
		t.Errorf("pessimal order beat min-bound: %d < %d",
			badRes.Stats.PeakIntermediate, res.Stats.PeakIntermediate)
	}
}

// spineStats are the statistics a complete unlimited run must report
// identically from either entry point at any worker count.
type spineStats struct {
	Order, StageSizes                      string
	PeakIntermediate, TotalIntermediate    int
	ValidationRemoved, Output, LeafBatches int
}

func spineOf(s *Stats) spineStats {
	return spineStats{fmt.Sprint(s.Order), fmt.Sprint(s.StageSizes), s.PeakIntermediate, s.TotalIntermediate,
		s.ValidationRemoved, s.Output, s.LeafBatches}
}

// runSpine drives q through XJoin or XJoinStream and returns the answers
// as a result either way.
func runSpine(t *testing.T, q *Query, opts Options, stream bool) *Result {
	t.Helper()
	if !stream {
		res, err := XJoin(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := &Result{}
	st, err := XJoinStream(q, opts, func(tu relational.Tuple) bool {
		res.Tuples = append(res.Tuples, tu.Clone())
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	res.Attrs, res.Stats = st.Order, *st
	return res
}

// checkSpine pins every parameterisation of the one executor spine to the
// serial XJoin: complete runs agree on answers and statistics, limited
// runs return exactly min(k, |answers|) tuples of the full answer.
func checkSpine(t *testing.T, name string, q *Query) {
	t.Helper()
	serial, err := XJoin(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := len(serial.Tuples)
	all := make([]int, len(serial.Attrs))
	for i := range all {
		all[i] = i
	}
	full := make(map[string]bool, n)
	for _, key := range tupleSet(serial.Tuples, all) {
		full[key] = true
	}
	for _, stream := range []bool{false, true} {
		for _, par := range []int{0, 2, 8, -1} {
			got := runSpine(t, q, Options{Parallelism: par}, stream)
			if !EqualResults(serial, got) {
				t.Fatalf("%s stream=%v parallelism %d: answers differ", name, stream, par)
			}
			if !stream && !reflect.DeepEqual(got.Tuples, serial.Tuples) {
				t.Fatalf("%s parallelism %d: XJoin output order differs from serial", name, par)
			}
			if g, w := spineOf(&got.Stats), spineOf(&serial.Stats); g != w {
				t.Fatalf("%s stream=%v parallelism %d: stats %+v, serial %+v", name, stream, par, g, w)
			}
			for _, k := range []int{1, 3, n, n + 5} {
				if k <= 0 {
					continue
				}
				want := min(k, n)
				lim := runSpine(t, q, Options{Parallelism: par, Limit: k}, stream)
				if len(lim.Tuples) != want || lim.Stats.Output != want {
					t.Fatalf("%s stream=%v parallelism %d limit %d: %d tuples (Output %d), want %d",
						name, stream, par, k, len(lim.Tuples), lim.Stats.Output, want)
				}
				keys := tupleSet(lim.Tuples, all)
				if len(keys) != want {
					t.Fatalf("%s stream=%v parallelism %d limit %d: %d distinct tuples, want %d", name, stream, par, k, len(keys), want)
				}
				for _, key := range keys {
					if !full[key] {
						t.Fatalf("%s stream=%v parallelism %d limit %d: tuple outside the full answer", name, stream, par, k)
					}
				}
			}
		}
	}
}

func TestParallelXJoinMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	for trial := 0; trial < 20; trial++ {
		inst, err := datagen.RandomMultiModel(rng, datagen.RandomConfig{
			NodeBudget: 80,
			Tables:     rng.Intn(2),
		})
		if err != nil {
			t.Fatal(err)
		}
		checkSpine(t, fmt.Sprintf("trial %d", trial), mustQuery(t, inst))
	}
	// And on the worst-case twig-only workload with large stages.
	inst, err := datagen.Example34(5)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQuery(inst.Doc, inst.Pattern, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkSpine(t, "worst case", q)
	if res, err := XJoin(q, Options{Parallelism: 4}); err != nil || len(res.Tuples) != 5*5*5*5*5 {
		t.Fatalf("parallel worst case: %d tuples want %d (err %v)", len(res.Tuples), 5*5*5*5*5, err)
	}
}
