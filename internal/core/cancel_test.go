package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/faultpoint"
	"repro/internal/obs"
	"repro/internal/relational"
	"repro/internal/twig"
	"repro/internal/xmldb"
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
// answers validated before the cancel. The context ends at a fixed probe
// (an endingCtx), half way through the probes a full run makes, so the
// end lands mid-join however fast the run is.
func TestCancelMidRunMaterializing(t *testing.T) {
	counter := &endingCtx{Context: context.Background(), live: math.MaxInt32}
	full, err := XJoin(deepChainQuery(t, 400), Options{Context: counter})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &endingCtx{Context: context.Background(), live: counter.probes.Load() / 2}
	res, err := XJoin(deepChainQuery(t, 400), Options{Context: ctx})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if res == nil || !res.Stats.Cancelled {
		t.Fatalf("partial result = %+v, want Cancelled set", res)
	}
	if out := res.Stats.Output; out <= 0 || out >= full.Stats.Output {
		t.Fatalf("partial output = %d, want strictly between 0 and the full %d", out, full.Stats.Output)
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

// endingCtx is a context whose Done channel never fires and whose Err
// reads live for its first live probes and, after them, the embedded
// context's error, or context.Canceled while that has none: the run can
// only observe its end by polling, and live picks the probe that sees it
// first.
type endingCtx struct {
	context.Context
	live   int32
	probes atomic.Int32
}

var neverDone = make(chan struct{})

func (c *endingCtx) Done() <-chan struct{} { return neverDone }

func (c *endingCtx) Err() error {
	if c.probes.Add(1) <= c.live {
		return nil
	}
	if err := c.Context.Err(); err != nil {
		return err
	}
	return context.Canceled
}

// TestPlanningBuildsUnderRunControl: the index builds the hybrid plan
// needs — its distinct counts and sizes — run under the run's build
// control, so a context that is over when they start abandons the first of
// them: the run reports the cancellation and leaves nothing resident in the
// catalog. The hybrid run plans its decomposition after the cancel guard,
// so its context reads live once, for the guard. A live traced run shows
// the planning builds as children of its plan span.
func TestPlanningBuildsUnderRunControl(t *testing.T) {
	inst, err := datagen.DeepChain(300)
	if err != nil {
		t.Fatal(err)
	}
	in := []TwigInput{{Doc: inst.Doc, Pattern: inst.Pattern}}
	for _, tc := range []struct {
		name string
		opts Options
		live int32
	}{
		{"hybrid", Options{Plan: PlanHybrid}, 1},
	} {
		cat := catalog.New(0)
		q, err := NewQueryInputsCatalog(in, inst.Tables, cat)
		if err != nil {
			t.Fatal(err)
		}
		opts := tc.opts
		opts.Context = &endingCtx{Context: context.Background(), live: tc.live}
		res, err := XJoin(q, opts)
		if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want ErrCancelled wrapping context.Canceled", tc.name, err)
		}
		if res == nil || !res.Stats.Cancelled {
			t.Fatalf("%s: result = %+v, want one with Cancelled set", tc.name, res)
		}
		if s := cat.Stats(); s.Entries != 0 {
			t.Errorf("%s: a cancelled plan left %d catalog entries (%d B) resident, want 0", tc.name, s.Entries, s.ResidentBytes)
		}
	}

	q, err := NewQueryInputs(in, inst.Tables)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("hybrid")
	if _, err := XJoin(q, Options{Plan: PlanHybrid, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	var planBuilds []string
	inPlan := false
	for _, line := range strings.Split(tr.Render(), "\n") {
		switch {
		case strings.HasPrefix(line, "  plan "):
			inPlan = true
		case !strings.HasPrefix(line, "    "):
			inPlan = false
		case inPlan && strings.HasPrefix(line, "    build structix tag["):
			planBuilds = append(planBuilds, line)
		}
	}
	if len(planBuilds) == 0 {
		t.Errorf("the hybrid plan's tag builds are not children of the plan span:\n%s", tr.Render())
	}
}

// TestBindBuildsHonourDeadline: the validators' and bindAtoms' builds run
// under the run's context probe, so a deadline that passes while the
// first tag build is delayed abandons it, and no later build starts: the
// run is cancelled with no tag run or pair table left resident. The
// context hides its end from the cancel guard's one probe, so however
// late the run starts, the first build is what sees the deadline.
func TestBindBuildsHonourDeadline(t *testing.T) {
	b := xmldb.NewBuilder(relational.NewDict())
	b.Open("r")
	for i := 0; i < 50; i++ {
		b.Open("x").Leaf("a", fmt.Sprint(i)).Close()
	}
	doc, err := b.Close().Done()
	if err != nil {
		t.Fatal(err)
	}
	const tagBuild = "structix.tag.build"
	faultpoint.Install(faultpoint.Rule{Name: tagBuild, Sleep: 20 * time.Millisecond})
	t.Cleanup(faultpoint.Reset)
	cat := catalog.New(0)
	q, err := NewQueryInputsCatalog([]TwigInput{{Doc: doc, Pattern: twig.MustParse("/r/x/a")}}, nil, cat)
	if err != nil {
		t.Fatal(err)
	}
	deadline, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	ctx := &endingCtx{Context: deadline, live: 1}
	if _, err := XJoin(q, Options{Context: ctx}); !errors.Is(err, ErrCancelled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCancelled wrapping context.DeadlineExceeded", err)
	}
	if s := cat.Stats(); s.Entries != 0 {
		t.Fatalf("a run past its deadline left %d catalog entries (%d B) resident, want 0", s.Entries, s.ResidentBytes)
	}
	if n := faultpoint.Hits(tagBuild); n != 1 {
		t.Fatalf("%d tag builds started, want the 1 the deadline abandoned", n)
	}
}

// TestHybridCancelledWhileMaterializing: a context that ends at any point
// of a hybrid or forced-binary run — planning, a subplan's hash-join
// chain, the top join — cancels the run. A chain stopped part-way holds
// only its first members' columns, so it must never reach the top join.
func TestHybridCancelledWhileMaterializing(t *testing.T) {
	inst, err := datagen.DeepChain(300)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQueryInputs([]TwigInput{{Doc: inst.Doc, Pattern: inst.Pattern}}, inst.Tables)
	if err != nil {
		t.Fatal(err)
	}
	want, err := XJoin(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range []PlanMode{PlanHybrid, PlanBinary} {
		for live := int32(0); live < 16; live++ {
			// A fresh query each time: a completed run caches its
			// intermediates, and the next would read no probe.
			q, err := NewQueryInputs([]TwigInput{{Doc: inst.Doc, Pattern: inst.Pattern}}, inst.Tables)
			if err != nil {
				t.Fatal(err)
			}
			res, err := XJoin(q, Options{Plan: plan, Context: &endingCtx{Context: context.Background(), live: live}})
			switch {
			case errors.Is(err, ErrCancelled):
			case err != nil:
				t.Fatalf("plan=%v live=%d: err = %v, want ErrCancelled or the full answer", plan, live, err)
			case !EqualResults(res, want):
				t.Fatalf("plan=%v live=%d: %d tuples, want %d", plan, live, len(res.Tuples), len(want.Tuples))
			}
		}
	}
}
