package xmjoin

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/testutil"
)

// The chaos suite drives the fault-injection registry against the public
// API: injected panics and errors at the engine's fault points must come
// back as typed errors with partial results, never as a crash, a hung
// cursor, a poisoned build slot, or a leaked goroutine. CI runs these
// under -race with -count=2, so every test must leave global state
// (the faultpoint plan, the catalog) clean behind itself.

// chaosDB is a deep-chain database large enough that parallel runs cut
// real morsels and cold index builds do visible work.
func chaosDB(t testing.TB, depth int) (*Database, *Query) {
	t.Helper()
	db := deepChainDB(t, depth)
	q, err := db.Query("//a//b")
	if err != nil {
		t.Fatal(err)
	}
	return db, q
}

// planFields are the statistics a run fixes before it executes: every
// exit — finished, cancelled, failed — must report them alike.
type planFields struct {
	Algorithm, ADMode, Plan, Degraded, Order string
}

func planOf(s Stats) planFields {
	return planFields{s.Algorithm, s.ADMode, s.Plan, s.Degraded, fmt.Sprint(s.Order)}
}

// chaosRun drives q through the materializing or the streaming entry
// point and reports the run's statistics, row count and error.
func chaosRun(q *Query, stream bool) (Stats, int, error) {
	if stream {
		n := 0
		st, err := q.ExecXJoinStream(func([]string) bool { n++; return true })
		return st, n, err
	}
	res, err := q.ExecXJoin()
	if res == nil {
		return Stats{}, 0, err
	}
	return res.Stats(), res.Len(), err
}

// chaosModes calls f for every {XJoin, XJoinStream} × worker count × plan
// mode combination the failure paths must agree across.
func chaosModes(t *testing.T, f func(t *testing.T, stream bool, par int, plan PlanMode)) {
	for _, stream := range []bool{false, true} {
		for _, par := range []int{0, 2, 4} {
			for _, plan := range []PlanMode{PlanWCOJ, PlanHybrid} {
				t.Run(fmt.Sprintf("stream=%v/par=%d/plan=%v", stream, par, plan), func(t *testing.T) {
					f(t, stream, par, plan)
				})
			}
		}
	}
}

// TestChaosMorselWorkerPanic panics inside a morsel worker's task loop:
// the run must return an ErrInternal-matching error with Stats.Internal
// set and the plan a finished run reports, siblings must drain without
// leaking, and the same query must run to completion immediately
// afterwards over the same shared catalog. Serial runs have no morsel
// queue and must not notice.
func TestChaosMorselWorkerPanic(t *testing.T) {
	testutil.CheckGoroutines(t)
	chaosModes(t, func(t *testing.T, stream bool, par int, plan PlanMode) {
		_, q := chaosDB(t, 200)
		q.WithParallelism(par).WithPlan(plan)
		full, fullRows, err := chaosRun(q, stream)
		if err != nil {
			t.Fatal(err)
		}

		faultpoint.Install(faultpoint.Rule{Name: "wcoj.morsel.dequeue", Skip: 2, Times: 1, Panic: "chaos: worker down"})
		t.Cleanup(faultpoint.Reset)
		st, rows, err := chaosRun(q, stream)
		if par == 0 {
			if err != nil || rows != fullRows {
				t.Fatalf("serial run: rows=%d (want %d) err=%v", rows, fullRows, err)
			}
		} else {
			if !errors.Is(err, ErrInternal) {
				t.Fatalf("err = %v, want ErrInternal", err)
			}
			if !st.Internal {
				t.Fatalf("stats = %+v, want partial statistics with Internal set", st)
			}
			if rows > fullRows || st.Output != rows {
				t.Fatalf("partial result has %d rows (Stats.Output %d), full run %d", rows, st.Output, fullRows)
			}
		}
		if got, want := planOf(st), planOf(full); got != want {
			t.Errorf("failed run reports %+v, a finished run %+v", got, want)
		}

		// The rule retired after one firing: the very next run over the same
		// query, catalog and atoms completes untouched.
		if _, rows, err := chaosRun(q, stream); err != nil || rows != fullRows {
			t.Fatalf("post-panic rerun: rows=%d (want %d) err=%v", rows, fullRows, err)
		}
	})
}

// TestChaosStructixBuildPanic kills a lazy structural-index build with a
// panic. The retryable build slot must not be poisoned: the failing run
// reports ErrInternal and the plan a finished run reports — also when the
// build runs inside a hybrid plan's subplan materialization — and the
// next one rebuilds from scratch and succeeds.
func TestChaosStructixBuildPanic(t *testing.T) {
	testutil.CheckGoroutines(t)
	chaosModes(t, func(t *testing.T, stream bool, par int, plan PlanMode) {
		_, q := chaosDB(t, 120)
		q.WithParallelism(par).WithPlan(plan)

		faultpoint.Install(
			faultpoint.Rule{Name: "structix.tag.build", Times: 1, Panic: "chaos: build died"},
			faultpoint.Rule{Name: "structix.ad.build", Times: 1, Panic: "chaos: build died"},
		)
		t.Cleanup(faultpoint.Reset)
		failed, _, err := chaosRun(q, stream)
		if !errors.Is(err, ErrInternal) {
			t.Fatalf("err = %v, want ErrInternal", err)
		}
		if !failed.Internal {
			t.Fatalf("stats = %+v, want Internal set", failed)
		}
		// The second run may trip the other rule (each build point panics at
		// most once); any failure must still be the typed internal error.
		if _, _, err := chaosRun(q, stream); err != nil && !errors.Is(err, ErrInternal) {
			t.Fatalf("second run err = %v, want nil or ErrInternal", err)
		}
		faultpoint.Reset()
		full, rows, err := chaosRun(q, stream)
		if err != nil {
			t.Fatalf("rerun after build panics: %v", err)
		}
		if rows == 0 {
			t.Fatal("rerun after build panics returned no rows")
		}
		if got, want := planOf(failed), planOf(full); got != want {
			t.Errorf("failed run reports %+v, a finished run %+v", got, want)
		}
	})
}

// TestChaosAtomOpenError injects a plain error (not a panic) at an atom
// Open: it must surface as an ordinary run error — not ErrInternal, the
// engine did not malfunction — and clear on the next run.
func TestChaosAtomOpenError(t *testing.T) {
	testutil.CheckGoroutines(t)
	_, q := chaosDB(t, 80)
	boom := errors.New("chaos: open refused")
	faultpoint.Install(faultpoint.Rule{Name: "wcoj.atom.open", Times: 1, Err: boom})
	t.Cleanup(faultpoint.Reset)
	if _, err := q.ExecXJoin(); !errors.Is(err, boom) || errors.Is(err, ErrInternal) {
		t.Fatalf("err = %v, want the injected error and not ErrInternal", err)
	}
	if _, err := q.ExecXJoin(); err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if faultpoint.Hits("wcoj.atom.open") == 0 {
		t.Fatal("fault point wcoj.atom.open was never reached")
	}
}

// chaosTableDB is chaosDB's chain joined through two tables, R(a, c) and
// S(c, b), so the run opens compiled table cursors at every depth.
func chaosTableDB(t *testing.T, depth int) *Query {
	t.Helper()
	db := deepChainDB(t, depth)
	var r, s [][]string
	for i := 0; i < depth; i += 2 {
		r = append(r, []string{"a" + itoa(i), "c" + itoa(i%5)}, []string{"a" + itoa(i), "c" + itoa((i+1)%5)})
	}
	for j := 1; j < depth; j += 2 {
		for k := j % 2; k < 5; k += 2 {
			s = append(s, []string{"c" + itoa(k), "b" + itoa(j)})
		}
	}
	if err := db.AddTableRows("R", []string{"a", "c"}, r); err != nil {
		t.Fatal(err)
	}
	if err := db.AddTableRows("S", []string{"c", "b"}, s); err != nil {
		t.Fatal(err)
	}
	q, err := db.Query("//a//b", "R", "S")
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestChaosTableOpen fails a run at a compiled table cursor's open, then
// panics inside the streaming emit mid-run. The open error surfaces as the
// run's own error, not ErrInternal; the emit panic as ErrInternal; and the
// next run over the same query and catalog answers in full — serial and
// parallel alike. (The cursor-level half of this — no owned cursor left
// open, none pooled twice — is wcoj's TestCompiledCursorsOnFailure.)
func TestChaosTableOpen(t *testing.T) {
	testutil.CheckGoroutines(t)
	for _, par := range []int{0, 2, 4} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			q := chaosTableDB(t, 80).WithParallelism(par)
			_, fullRows, err := chaosRun(q, true)
			if err != nil || fullRows == 0 {
				t.Fatalf("clean run: %d rows, err %v", fullRows, err)
			}
			t.Cleanup(faultpoint.Reset)

			boom := errors.New("chaos: table open refused")
			for _, stream := range []bool{false, true} {
				faultpoint.Install(faultpoint.Rule{Name: "wcoj.table.open", Skip: 7, Times: 1, Err: boom})
				if _, _, err := chaosRun(q, stream); !errors.Is(err, boom) || errors.Is(err, ErrInternal) {
					t.Fatalf("stream=%v: err = %v, want the injected error and not ErrInternal", stream, err)
				}
				if faultpoint.Hits("wcoj.table.open") <= 7 {
					t.Fatal("fault point wcoj.table.open was not reached past its skip")
				}
			}
			faultpoint.Reset()

			n := 0
			_, err = q.ExecXJoinStream(func([]string) bool {
				if n++; n == 5 {
					panic("chaos: emit died")
				}
				return true
			})
			if !errors.Is(err, ErrInternal) {
				t.Fatalf("emit panic: err = %v, want ErrInternal", err)
			}

			for _, stream := range []bool{false, true} {
				if _, rows, err := chaosRun(q, stream); err != nil || rows != fullRows {
					t.Fatalf("stream=%v rerun: rows=%d (want %d) err=%v", stream, rows, fullRows, err)
				}
			}
		})
	}
}

// TestChaosRowsExecutorPanic kills the Rows producer goroutine mid-send:
// Next must end instead of blocking forever, Err must match ErrInternal,
// and Close must return promptly without leaking the executor.
func TestChaosRowsExecutorPanic(t *testing.T) {
	testutil.CheckGoroutines(t)
	_, q := chaosDB(t, 80)
	faultpoint.Install(faultpoint.Rule{Name: "xmjoin.rows.send", Times: 1, Panic: "chaos: send died"})
	t.Cleanup(faultpoint.Reset)

	rows, err := q.Rows(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); !errors.Is(err, ErrInternal) {
		t.Fatalf("Rows.Err = %v, want ErrInternal", err)
	}
	done := make(chan error, 1)
	go func() { done <- rows.Close() }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrInternal) {
			t.Fatalf("Close = %v, want ErrInternal", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a dead executor")
	}

	// A fresh cursor over the same query streams normally.
	got := 0
	for _, err := range q.All(context.Background()) {
		if err != nil {
			t.Fatalf("post-panic cursor: %v", err)
		}
		got++
	}
	if got == 0 {
		t.Fatal("post-panic cursor yielded no rows")
	}
}

// TestChaosBudgetDegradation squeezes the catalog budget so every lazy
// structural build is refused: the run must transparently fall back to
// the post-hoc configuration — same answers, Stats.Degraded recording
// why, ADMode reporting the mode actually run — instead of failing or
// thrashing the cache.
func TestChaosBudgetDegradation(t *testing.T) {
	testutil.CheckGoroutines(t)
	db, q := chaosDB(t, 120)
	full, err := q.ExecXJoin()
	if err != nil {
		t.Fatal(err)
	}
	if full.Stats().Degraded != "" {
		t.Fatalf("unlimited-budget run degraded: %q", full.Stats().Degraded)
	}

	db.ResetCatalog()
	db.Catalog().SetBudget(1)
	q2, err := db.Query("//a//b")
	if err != nil {
		t.Fatal(err)
	}
	res, err := q2.ExecXJoin()
	if err != nil {
		t.Fatalf("budget-squeezed run: %v", err)
	}
	if res.Len() != full.Len() {
		t.Fatalf("degraded run = %d rows, want %d", res.Len(), full.Len())
	}
	s := res.Stats()
	if s.Degraded == "" {
		t.Fatal("degraded run did not record Stats.Degraded")
	}
	if !errors.Is(ErrBudgetExceeded, ErrBudgetExceeded) || s.ADMode != "posthoc" {
		t.Fatalf("degraded ADMode = %q, want posthoc", s.ADMode)
	}

	// The streaming path degrades the same way when nothing was emitted
	// before the refusal (the build is refused before the first answer).
	emitted := 0
	stats, err := q2.ExecXJoinStream(func([]string) bool { emitted++; return true })
	if err != nil {
		t.Fatalf("streamed degraded run: %v", err)
	}
	if emitted != full.Len() || stats.Degraded == "" {
		t.Fatalf("streamed degraded run: emitted=%d (want %d) degraded=%q", emitted, full.Len(), stats.Degraded)
	}

	// Parallel execution degrades too.
	resP, err := q2.WithParallelism(4).ExecXJoin()
	if err != nil {
		t.Fatalf("parallel degraded run: %v", err)
	}
	if resP.Len() != full.Len() || resP.Stats().Degraded == "" {
		t.Fatalf("parallel degraded run: rows=%d (want %d) degraded=%q",
			resP.Len(), full.Len(), resP.Stats().Degraded)
	}

	// Planning outside a run (Rows' and Prepare's) builds on a cold
	// catalog too, and has no cheaper shape to fall back to: the budget
	// must not refuse it, and the run it plans still degrades.
	db.ResetCatalog()
	q3, err := db.Query("//a//b")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := q3.WithPlan(PlanHybrid).Rows(context.Background())
	if err != nil {
		t.Fatalf("hybrid Rows under a squeezed budget: %v", err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Close(); err != nil || n != full.Len() {
		t.Fatalf("hybrid Rows under a squeezed budget: %d rows (want %d), err %v", n, full.Len(), err)
	}
	db.ResetCatalog()
	q4, err := db.Query("//a//b")
	if err != nil {
		t.Fatal(err)
	}
	p, err := q4.WithPlan(PlanHybrid).Prepare()
	if err != nil {
		t.Fatalf("hybrid Prepare under a squeezed budget: %v", err)
	}
	resH, err := p.Execute()
	if err != nil || resH.Len() != full.Len() {
		t.Fatalf("prepared hybrid run under a squeezed budget: rows=%v (want %d), err %v", resH, full.Len(), err)
	}
}

// TestChaosCancelDuringColdBuild cancels a run while its cold structural
// index build is still in progress: the build's cancellation polls must
// abandon it within the check interval, the run reports ErrCancelled, and
// the discarded partial build leaves the slot clean for the next run.
func TestChaosCancelDuringColdBuild(t *testing.T) {
	testutil.CheckGoroutines(t)
	_, q := chaosDB(t, 2000)
	// Stretch the build's start so the deadline reliably lands inside it.
	faultpoint.Install(
		faultpoint.Rule{Name: "structix.ad.build", Times: 1, Sleep: 50 * time.Millisecond},
		faultpoint.Rule{Name: "structix.tag.build", Times: 1, Sleep: 50 * time.Millisecond},
	)
	t.Cleanup(faultpoint.Reset)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	res, err := q.ExecXJoinCtx(ctx)
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if res == nil || !res.Stats().Cancelled {
		t.Fatalf("result = %v, want partial result with Stats.Cancelled", res)
	}

	faultpoint.Reset()
	full, err := q.ExecXJoin()
	if err != nil {
		t.Fatalf("rerun after abandoned build: %v", err)
	}
	if full.Len() == 0 {
		t.Fatal("rerun after abandoned build returned no rows")
	}
}

// TestChaosPrepareCtxPreCancelled pins the fail-fast contract: an
// already-over context stops Prepare before any plan or atom work.
func TestChaosPrepareCtxPreCancelled(t *testing.T) {
	db := figure1DB(t)
	q, err := db.Query("/invoices/orderLine[orderID][ISBN]/price", "R")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := q.PrepareCtx(ctx); !errors.Is(err, ErrCancelled) {
		t.Fatalf("Query.PrepareCtx = %v, want ErrCancelled", err)
	}
	if _, err := db.PrepareCtx(ctx, "/invoices/orderLine[orderID][ISBN]/price", "R"); !errors.Is(err, ErrCancelled) {
		t.Fatalf("Database.PrepareCtx = %v, want ErrCancelled", err)
	}
	if _, err := db.PrepareOnCtx(ctx, []TwigOn{{Twig: "//orderID"}}); !errors.Is(err, ErrCancelled) {
		t.Fatalf("Database.PrepareOnCtx = %v, want ErrCancelled", err)
	}
	if _, err := q.PrepareCtx(context.Background()); err != nil {
		t.Fatalf("live-context PrepareCtx: %v", err)
	}
}

// TestChaosConcurrentHammer fires intermittent worker panics into a
// stream of concurrent prepared executions: every call must end in either
// a full result or a typed ErrInternal partial — no crashes, no leaks —
// and once the rules retire the next execution is whole again.
func TestChaosConcurrentHammer(t *testing.T) {
	testutil.CheckGoroutines(t)
	db, _ := chaosDB(t, 150)
	p, err := db.Prepare("//a//b")
	if err != nil {
		t.Fatal(err)
	}
	full, err := p.Execute()
	if err != nil {
		t.Fatal(err)
	}

	faultpoint.Install(
		faultpoint.Rule{Name: "wcoj.morsel.dequeue", Skip: 5, Times: 2, Panic: "chaos: hammer"},
		faultpoint.Rule{Name: "structix.stab.seek", Skip: 200, Times: 2, Panic: "chaos: hammer"},
	)
	t.Cleanup(faultpoint.Reset)

	const workers, runsEach = 4, 3
	errs := make(chan error, workers*runsEach)
	for w := 0; w < workers; w++ {
		go func() {
			for i := 0; i < runsEach; i++ {
				res, err := p.Execute(ExecOptions{Parallelism: 4})
				switch {
				case err == nil:
					if res.Len() != full.Len() {
						errs <- errors.New("clean run returned a short result")
						continue
					}
				case errors.Is(err, ErrInternal):
					// Expected: an injected panic, isolated.
				default:
					errs <- err
					continue
				}
				errs <- nil
			}
		}()
	}
	for i := 0; i < workers*runsEach; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	faultpoint.Reset()
	res, err := p.Execute(ExecOptions{Parallelism: 4})
	if err != nil || res.Len() != full.Len() {
		t.Fatalf("post-hammer execution: rows=%d (want %d) err=%v", res.Len(), full.Len(), err)
	}
}
