package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/relational"
)

// deepChainQuery builds the DeepChain(depth) //a//b query — the workload
// whose full enumeration is large enough (Θ(depth²/4) answers) that a
// cancelled run must visibly stop early.
func deepChainQuery(t *testing.T, depth int) *Query {
	t.Helper()
	inst, err := datagen.DeepChain(depth)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQuery(inst.Doc, inst.Pattern, inst.Tables)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// planFields are the statistics fixed before execution starts: every exit
// of a run — finished, cancelled, failed — must report them alike.
type planFields struct {
	Algorithm, ADMode, Plan, Degraded, Order string
}

func planOf(s *Stats) planFields {
	return planFields{s.Algorithm, s.ADMode, s.Plan, s.Degraded, fmt.Sprint(s.Order)}
}

// TestCancelledBeforeStart: a context that is already over fails every
// executor before any join work, with the partial-result contract intact —
// including the plan the run would have executed, whatever the entry
// point, worker count or plan mode.
func TestCancelledBeforeStart(t *testing.T) {
	q := deepChainQuery(t, 50)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for _, par := range []int{0, 2} {
		for _, plan := range []PlanMode{PlanWCOJ, PlanHybrid} {
			opts := Options{Parallelism: par, Plan: plan}
			full, err := XJoin(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			fullStream, err := XJoinStream(q, opts, func(relational.Tuple) bool { return true })
			if err != nil {
				t.Fatal(err)
			}
			opts.Context = ctx

			res, err := XJoin(q, opts)
			if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
				t.Fatalf("par=%d plan=%v: XJoin err = %v, want ErrCancelled wrapping context.Canceled", par, plan, err)
			}
			if res == nil || !res.Stats.Cancelled || len(res.Tuples) != 0 {
				t.Fatalf("par=%d plan=%v: XJoin partial result = %+v, want empty with Cancelled set", par, plan, res)
			}
			if got, want := planOf(&res.Stats), planOf(&full.Stats); got != want {
				t.Errorf("par=%d plan=%v: pre-cancelled XJoin reports %+v, a finished run %+v", par, plan, got, want)
			}

			stats, err := XJoinStream(q, opts, nil)
			if !errors.Is(err, ErrCancelled) {
				t.Fatalf("par=%d plan=%v: XJoinStream err = %v, want ErrCancelled", par, plan, err)
			}
			if stats == nil || !stats.Cancelled {
				t.Fatalf("par=%d plan=%v: XJoinStream stats = %+v, want Cancelled set", par, plan, stats)
			}
			if got, want := planOf(stats), planOf(fullStream); got != want {
				t.Errorf("par=%d plan=%v: pre-cancelled XJoinStream reports %+v, a finished run %+v", par, plan, got, want)
			}
			// The two entry points differ in their label and nothing else.
			got, want := planOf(stats), planOf(&res.Stats)
			got.Algorithm, want.Algorithm = "", ""
			if got != want {
				t.Errorf("par=%d plan=%v: XJoinStream plan %+v, XJoin plan %+v", par, plan, got, want)
			}
		}
	}

	bres, err := Baseline(q, Options{Context: ctx})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("Baseline err = %v, want ErrCancelled", err)
	}
	if bres == nil || !bres.Stats.Cancelled {
		t.Fatalf("Baseline partial result = %+v, want Cancelled set", bres)
	}

	// A deadline in the past reports DeadlineExceeded through the same
	// sentinel.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer dcancel()
	if _, err := XJoin(q, Options{Context: dctx}); !errors.Is(err, context.DeadlineExceeded) || !errors.Is(err, ErrCancelled) {
		t.Fatalf("deadline err = %v, want ErrCancelled wrapping DeadlineExceeded", err)
	}
}

// TestCancelMidRunAllExecutors cancels a deep-chain full enumeration
// after its first answer, under the serial and morsel-parallel executors
// (workers 1 and 8) across all three A-D modes, and asserts the run
// reports cancellation, emits only boundedly many answers after the
// cancel, and merges the partial statistics it gathered.
func TestCancelMidRunAllExecutors(t *testing.T) {
	const depth = 400
	full := deepChainQuery(t, depth)
	fullStats, err := XJoinStream(full, Options{}, func(relational.Tuple) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	fullOutput := fullStats.Output

	for _, workers := range []int{0, 1, 8} {
		for _, ad := range []ADMode{ADLazy, ADPostHoc, ADMaterialized} {
			name := fmt.Sprintf("workers=%d/ad=%s", workers, ad)
			t.Run(name, func(t *testing.T) {
				q := deepChainQuery(t, depth)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				emitted := 0
				stats, err := XJoinStream(q, Options{Context: ctx, Parallelism: workers, AD: ad},
					func(relational.Tuple) bool {
						emitted++
						if emitted == 1 {
							cancel()
						}
						// Give the context watcher a scheduling slot so the
						// flag propagates; the executor must then stop
						// within one partial tuple per worker.
						time.Sleep(100 * time.Microsecond)
						return true
					})
				if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want ErrCancelled wrapping context.Canceled", err)
				}
				if stats == nil || !stats.Cancelled {
					t.Fatalf("stats = %+v, want Cancelled set", stats)
				}
				// The sleep bounds the pre-flag window to a handful of
				// emissions; anything near the full result means the
				// cancel was ignored.
				if emitted > fullOutput/10 {
					t.Fatalf("emitted %d of %d answers after cancellation", emitted, fullOutput)
				}
				if len(stats.StageSizes) == 0 {
					t.Fatalf("partial stats lost their stage sizes: %+v", stats)
				}
			})
		}
	}
}

// TestCancelMidRunMaterializing is TestCancelMidRunAllExecutors for the
// materializing XJoin entry point: the partial result carries the
// answers validated before the cancel.
func TestCancelMidRunMaterializing(t *testing.T) {
	q := deepChainQuery(t, 400)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	res, err := XJoin(q, Options{Context: ctx})
	if err == nil {
		// The run may legitimately finish before the timer on a fast
		// machine; only the cancelled case has assertions.
		t.Skip("run completed before cancellation fired")
	}
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if res == nil || !res.Stats.Cancelled {
		t.Fatalf("partial result = %+v, want Cancelled set", res)
	}
	if len(res.Tuples) != res.Stats.Output {
		t.Fatalf("partial result holds %d tuples but Stats.Output = %d", len(res.Tuples), res.Stats.Output)
	}
}

// TestCancelledColdRunKeepsCatalogConsistent cancels a cold run borrowing
// from a shared catalog mid-flight, then verifies later warm runs over
// the same catalog still produce exactly the standalone result — a
// cancelled build must never leave a poisoned entry behind.
func TestCancelledColdRunKeepsCatalogConsistent(t *testing.T) {
	inst, err := datagen.DeepChain(300)
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New(0)
	in := []TwigInput{{Doc: inst.Doc, Pattern: inst.Pattern}}

	cold, err := NewQueryInputsCatalog(in, inst.Tables, cat)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := XJoinStream(cold, Options{Context: ctx}, func(relational.Tuple) bool {
		cancel()
		time.Sleep(50 * time.Microsecond)
		return true
	}); !errors.Is(err, ErrCancelled) {
		t.Fatalf("cold run err = %v, want ErrCancelled", err)
	}

	warm, err := NewQueryInputsCatalog(in, inst.Tables, cat)
	if err != nil {
		t.Fatal(err)
	}
	got, err := XJoin(warm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	oracleQ, err := NewQueryInputs(in, inst.Tables)
	if err != nil {
		t.Fatal(err)
	}
	want, err := XJoin(oracleQ, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !EqualResults(got, want) {
		t.Fatalf("warm run after a cancelled cold run diverged: %d tuples vs %d standalone",
			len(got.Tuples), len(want.Tuples))
	}
}

// TestCancelNoGoroutineLeak runs cancelled executions — serial and
// parallel — in a loop and checks the goroutine count settles back: the
// context watcher and every worker exit.
func TestCancelNoGoroutineLeak(t *testing.T) {
	q := deepChainQuery(t, 300)
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		for _, workers := range []int{0, 8} {
			ctx, cancel := context.WithCancel(context.Background())
			_, err := XJoinStream(q, Options{Context: ctx, Parallelism: workers}, func(relational.Tuple) bool {
				cancel()
				time.Sleep(50 * time.Microsecond)
				return true
			})
			cancel()
			if err != nil && !errors.Is(err, ErrCancelled) {
				t.Fatal(err)
			}
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > before {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines before=%d after=%d — cancelled runs leak", before, after)
	}
}
