package core

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cachehook"
	"repro/internal/datagen"
	"repro/internal/relational"
)

func cyclicCoreTailQuery(t *testing.T, coreN, tailLen int) *Query {
	t.Helper()
	tables, err := datagen.CyclicCoreTail(coreN, tailLen)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQuery(nil, nil, tables)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestHybridPlanCyclicCoreTail pins the GYO decomposition on the workload
// built for it: the triangle survives as the cyclic core on the generic
// join, the chain is one binary hash-join subplan.
func TestHybridPlanCyclicCoreTail(t *testing.T) {
	q := cyclicCoreTailQuery(t, 16, 4)
	plan, err := q.hybridPlan(ADLazy, PlanHybrid, cachehook.BuildControl{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.BinaryCount() != 1 {
		t.Fatalf("want 1 binary subplan, got %d: %+v", plan.BinaryCount(), plan.Subplans)
	}
	var core, chain *Subplan
	for i := range plan.Subplans {
		sp := &plan.Subplans[i]
		switch sp.Strategy {
		case "wcoj":
			core = sp
		case "binary":
			chain = sp
		}
	}
	if core == nil || core.Reason != "cyclic core" {
		t.Fatalf("missing cyclic core subplan: %+v", plan.Subplans)
	}
	if got := append([]string(nil), core.Atoms...); len(got) != 3 {
		t.Fatalf("core atoms = %v, want the triangle", got)
	}
	if chain == nil || chain.Reason != "acyclic fringe" || len(chain.Atoms) != 4 {
		t.Fatalf("chain subplan = %+v", chain)
	}
	// The chain is bijective: the estimate must stay near-linear, well
	// under the cost budget relative to the inputs.
	if chain.Est > binaryCostFactor*float64(chain.Inputs) {
		t.Fatalf("chain estimate %.1f exceeds budget for inputs %d", chain.Est, chain.Inputs)
	}

	// Forced binary folds every table into one component.
	bplan, err := q.hybridPlan(ADLazy, PlanBinary, cachehook.BuildControl{})
	if err != nil {
		t.Fatal(err)
	}
	if bplan.BinaryCount() != 1 || len(bplan.Subplans) != 1 || len(bplan.Subplans[0].Atoms) != 7 {
		t.Fatalf("forced binary plan = %+v", bplan.Subplans)
	}
}

// TestPlanModesAgree: the three plan modes must produce identical results —
// tuples and, given the shared attribute order, sorted sequence — across
// serial and parallel executors, with LIMIT and EXISTS behaving.
func TestPlanModesAgree(t *testing.T) {
	q := cyclicCoreTailQuery(t, 24, 3)
	ref, err := XJoin(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Tuples) == 0 {
		t.Fatal("reference run returned no tuples")
	}
	SortResultTuples(ref)
	for _, mode := range []PlanMode{PlanHybrid, PlanBinary} {
		for _, workers := range []int{1, 8} {
			res, err := XJoin(q, Options{Plan: mode, Parallelism: workers})
			if err != nil {
				t.Fatalf("%v workers=%d: %v", mode, workers, err)
			}
			if res.Stats.Algorithm != "xjoin-"+mode.String() {
				t.Fatalf("algorithm = %q", res.Stats.Algorithm)
			}
			if res.Stats.Plan != mode.String() {
				t.Fatalf("stats plan = %q, want %q", res.Stats.Plan, mode)
			}
			if res.Stats.BinarySubplans == 0 || res.Stats.BinaryIntermediate == 0 {
				t.Fatalf("%v: binary-side stats missing: %+v", mode, res.Stats)
			}
			if !EqualResults(ref, res) {
				t.Fatalf("%v workers=%d: results differ from pure wcoj", mode, workers)
			}
			SortResultTuples(res)
			if !reflect.DeepEqual(ref.Tuples, res.Tuples) {
				t.Fatalf("%v workers=%d: sorted tuple sequences differ", mode, workers)
			}

			// LIMIT returns a subset of the full answer of exactly that size.
			lim, err := XJoin(q, Options{Plan: mode, Parallelism: workers, Limit: 3})
			if err != nil {
				t.Fatal(err)
			}
			if len(lim.Tuples) != 3 {
				t.Fatalf("%v workers=%d: limit run returned %d tuples", mode, workers, len(lim.Tuples))
			}
			// EXISTS short-circuits through the same seam.
			one, err := XJoin(q, Options{Plan: mode, Parallelism: workers, Limit: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(one.Tuples) != 1 {
				t.Fatalf("%v workers=%d: exists run returned %d tuples", mode, workers, len(one.Tuples))
			}
		}
	}
}

// TestPlanModesAgreeStream runs the streaming driver across plan modes.
func TestPlanModesAgreeStream(t *testing.T) {
	q := cyclicCoreTailQuery(t, 16, 2)
	ref, err := XJoin(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []PlanMode{PlanHybrid, PlanBinary} {
		count := 0
		stats, err := XJoinStream(q, Options{Plan: mode}, func(_ relational.Tuple) bool {
			count++
			return true
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if count != len(ref.Tuples) || stats.Output != len(ref.Tuples) {
			t.Fatalf("%v: streamed %d tuples, want %d", mode, count, len(ref.Tuples))
		}
		if stats.Plan != mode.String() || stats.BinarySubplans == 0 {
			t.Fatalf("%v: stream stats = %+v", mode, stats)
		}
	}
}

// TestPlanModesAgreeRandom is the property test: forced plan modes agree
// with the pure generic join on random multi-model instances, across A-D
// handling modes.
func TestPlanModesAgreeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		inst, err := datagen.RandomMultiModel(rng, datagen.RandomConfig{Tables: 2})
		if err != nil {
			t.Fatal(err)
		}
		q, err := NewQuery(inst.Doc, inst.Pattern, inst.Tables)
		if err != nil {
			t.Fatal(err)
		}
		for _, ad := range []ADMode{ADLazy, ADPostHoc, ADMaterialized} {
			ref, err := XJoin(q, Options{AD: ad})
			if err != nil {
				t.Fatalf("trial %d ad=%v: %v", trial, ad, err)
			}
			for _, mode := range []PlanMode{PlanHybrid, PlanBinary} {
				for _, workers := range []int{1, 8} {
					res, err := XJoin(q, Options{AD: ad, Plan: mode, Parallelism: workers})
					if err != nil {
						t.Fatalf("trial %d ad=%v %v workers=%d: %v", trial, ad, mode, workers, err)
					}
					if !EqualResults(ref, res) {
						t.Fatalf("trial %d ad=%v %v workers=%d: %d tuples, want %d",
							trial, ad, mode, workers, len(res.Tuples), len(ref.Tuples))
					}
				}
			}
		}
	}
}

// TestExplainPlanTree: EXPLAIN renders the plan tree in every mode, with
// per-subplan strategy and bound.
func TestExplainPlanTree(t *testing.T) {
	q := cyclicCoreTailQuery(t, 8, 2)
	pure, err := Explain(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pure, "plan tree:") || !strings.Contains(pure, "wcoj [full query]") {
		t.Fatalf("pure-wcoj explain lacks plan tree:\n%s", pure)
	}
	hyb, err := Explain(q, Options{Plan: PlanHybrid})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"plan: xjoin-hybrid", "plan tree:", "wcoj [cyclic core]", "binary [acyclic fringe]", "bound <=", "est intermediates"} {
		if !strings.Contains(hyb, want) {
			t.Fatalf("hybrid explain lacks %q:\n%s", want, hyb)
		}
	}
	bin, err := Explain(q, Options{Plan: PlanBinary})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(bin, "plan: xjoin-binary") || !strings.Contains(bin, "binary [forced]") {
		t.Fatalf("binary explain:\n%s", bin)
	}
}

// TestHybridPrepare: Prepare resolves the decomposition, and repeated
// executions reuse the cached materialized atom list.
func TestHybridPrepare(t *testing.T) {
	q := cyclicCoreTailQuery(t, 8, 2)
	opts, err := Prepare(q, Options{Plan: PlanHybrid})
	if err != nil {
		t.Fatal(err)
	}
	first, err := XJoin(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := XJoin(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualResults(first, second) {
		t.Fatal("prepared hybrid runs disagree")
	}
	q.hmu.Lock()
	cached := len(q.hybridAtomCache)
	q.hmu.Unlock()
	if cached == 0 {
		t.Fatal("materialized atom list was not cached")
	}
}
