package xmjoin

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/testutil"
)

// TestRowsMatchesExec pins the cursor against the materializing executor:
// same rows, same order, plus the Scan/Columns/Stats surface.
func TestRowsMatchesExec(t *testing.T) {
	testutil.CheckGoroutines(t)
	db := figure1DB(t)
	q, err := db.Query("/invoices/orderLine[orderID][ISBN]/price", "R")
	if err != nil {
		t.Fatal(err)
	}
	var want [][]string
	if _, err := q.ExecXJoinStream(func(row []string) bool {
		want = append(want, append([]string(nil), row...))
		return true
	}); err != nil {
		t.Fatal(err)
	}

	rows, err := q.Rows(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if cols := rows.Columns(); len(cols) != len(q.PlanOrder()) {
		t.Fatalf("Columns = %v, want the plan order %v", cols, q.PlanOrder())
	}
	if _, ok := rows.Stats(); ok && len(want) > 0 {
		// Stats may legitimately be ready already (tiny result fits the
		// buffer); just ensure the zero-answer contract isn't broken.
		_ = ok
	}
	var got [][]string
	for rows.Next() {
		got = append(got, rows.Row())
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("cursor yielded %d rows, stream %d", len(got), len(want))
	}
	for i := range got {
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("row %d = %v, want %v", i, got[i], want[i])
			}
		}
	}
	stats, ok := rows.Stats()
	if !ok || stats.Output != len(want) || stats.Cancelled {
		t.Fatalf("Stats after exhaustion = %+v ok=%v, want Output=%d", stats, ok, len(want))
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("Close after exhaustion = %v", err)
	}

	// Scan round-trip on a fresh cursor.
	rows2, err := q.Rows(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rows2.Close()
	if err := rows2.Scan(); err == nil {
		t.Fatal("Scan before Next succeeded")
	}
	if !rows2.Next() {
		t.Fatal("empty cursor")
	}
	dests := make([]*string, len(rows2.Row()))
	vals := make([]string, len(dests))
	for i := range dests {
		dests[i] = &vals[i]
	}
	if err := rows2.Scan(dests...); err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if v != rows2.Row()[i] {
			t.Fatalf("Scan[%d] = %q, want %q", i, v, rows2.Row()[i])
		}
	}
	if err := rows2.Scan(dests[0]); err == nil {
		t.Fatal("Scan with wrong arity succeeded")
	}
}

// TestRowsEarlyCloseReleasesExecutor closes a cursor after two rows of a
// large enumeration: Close must stop the executor goroutine (no leak),
// report no error, and leave statistics describing a cancelled partial
// run.
func TestRowsEarlyCloseReleasesExecutor(t *testing.T) {
	testutil.CheckGoroutines(t)
	db := deepChainDB(t, 400)
	q, err := db.Query("//a//b")
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		rows, err := q.Rows(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 2; j++ {
			if !rows.Next() {
				t.Fatal("cursor dried up early")
			}
		}
		if err := rows.Close(); err != nil {
			t.Fatalf("early Close = %v, want nil (close is not an error)", err)
		}
		if err := rows.Err(); err != nil {
			t.Fatalf("Err after early Close = %v, want nil", err)
		}
		if rows.Next() {
			t.Fatal("Next succeeded after Close")
		}
		if stats, ok := rows.Stats(); !ok || !stats.Cancelled {
			t.Fatalf("Stats after early Close = %+v ok=%v, want partial with Cancelled", stats, ok)
		}
	}
	if !settles(before) {
		t.Fatalf("goroutines before=%d now=%d — Rows.Close leaks the executor", before, runtime.NumGoroutine())
	}
}

// TestRowsCtxCancelStopsExecutor cancels the cursor's context mid-read:
// Next must drain to false in bounded time, Err must match ErrCancelled
// (the caller's context died, unlike a plain Close), and the executor
// goroutine must exit even if Close is never called.
func TestRowsCtxCancelStopsExecutor(t *testing.T) {
	testutil.CheckGoroutines(t)
	db := deepChainDB(t, 400)
	q, err := db.Query("//a//b")
	if err != nil {
		t.Fatal(err)
	}
	full, err := q.ExecXJoin()
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, err := q.Rows(ctx)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
		if n == 3 {
			cancel()
		}
	}
	if err := rows.Err(); !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("Err = %v, want ErrCancelled wrapping context.Canceled", err)
	}
	if n >= full.Len()/10 {
		t.Fatalf("read %d of %d rows after cancellation — executor kept running", n, full.Len())
	}
	if !settles(before) {
		t.Fatalf("goroutines before=%d now=%d — ctx-done leaks the executor", before, runtime.NumGoroutine())
	}
	if err := rows.Close(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("Close after external cancel = %v, want the cancellation error", err)
	}

	// A context cancelled before the call fails eagerly.
	if _, err := q.Rows(ctx); !errors.Is(err, ErrCancelled) {
		t.Fatalf("Rows on dead ctx = %v, want ErrCancelled", err)
	}
}

// TestAllRangeFunc exercises the iter.Seq2 adapter: full range, early
// break (cursor closed, no leak), and terminal error delivery.
func TestAllRangeFunc(t *testing.T) {
	db := figure1DB(t)
	q, err := db.Query("/invoices/orderLine[orderID][ISBN]/price", "R")
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for row, err := range q.All(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		if len(row) == 0 {
			t.Fatal("empty row")
		}
		count++
	}
	if count != 2 {
		t.Fatalf("All yielded %d rows, want 2", count)
	}

	before := runtime.NumGoroutine()
	deep := deepChainDB(t, 300)
	dq, err := deep.Query("//a//b")
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, err := range dq.All(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		seen++
		if seen == 2 {
			break // must close the cursor behind the scenes
		}
	}
	if !settles(before) {
		t.Fatalf("goroutines before=%d now=%d — breaking out of All leaks", before, runtime.NumGoroutine())
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var terminal error
	for _, err := range dq.All(ctx) {
		terminal = err
	}
	if !errors.Is(terminal, ErrCancelled) {
		t.Fatalf("All on dead ctx yielded terminal err %v, want ErrCancelled", terminal)
	}
}

// TestPreparedRows drives the prepared-query cursor with per-call options
// and concurrent readers sharing one PreparedQuery.
func TestPreparedRows(t *testing.T) {
	db := figure1DB(t)
	p, err := db.Prepare("/invoices/orderLine[orderID][ISBN]/price", "R")
	if err != nil {
		t.Fatal(err)
	}
	// A dead context must fail the cursor eagerly.
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Rows(dead); !errors.Is(err, ErrCancelled) {
		t.Fatalf("Rows with dead ctx = %v, want ErrCancelled", err)
	}

	rows, err := p.Rows(context.Background(), ExecOptions{Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("limited cursor yielded %d rows, want 1", n)
	}

	done := make(chan int, 4)
	for i := 0; i < 4; i++ {
		go func() {
			c := 0
			for row, err := range p.All(context.Background()) {
				if err != nil || len(row) == 0 {
					done <- -1
					return
				}
				c++
			}
			done <- c
		}()
	}
	for i := 0; i < 4; i++ {
		if c := <-done; c != 2 {
			t.Fatalf("concurrent reader saw %d rows, want 2", c)
		}
	}
}

// settles polls until the goroutine count returns to at most n.
func settles(n int) bool {
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= n {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return runtime.NumGoroutine() <= n
}

// TestRowsNextBatch pins the chunked cursor surface: NextBatch must yield
// exactly the rows Next would, in the same order, chunks non-empty, nil at
// the end; mixing the two drains partially consumed chunks first; and the
// returned rows stay valid after further advances (caller-keep contract).
func TestRowsNextBatch(t *testing.T) {
	db := deepChainDB(t, 60) // enough rows to span several chunks
	q, err := db.Query("//a//b")
	if err != nil {
		t.Fatal(err)
	}

	var want [][]string
	if _, err := q.ExecXJoinStream(func(row []string) bool {
		want = append(want, append([]string(nil), row...))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(want) < 10 {
		t.Fatalf("workload too small for a batching test: %d rows", len(want))
	}

	// Pure NextBatch drain.
	rows, err := q.Rows(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var got [][]string
	for {
		batch := rows.NextBatch()
		if batch == nil {
			break
		}
		if len(batch) == 0 {
			t.Fatal("NextBatch returned an empty non-nil chunk")
		}
		got = append(got, batch...)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("NextBatch yielded %d rows, stream %d", len(got), len(want))
	}
	for i := range got {
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("row %d = %v, want %v", i, got[i], want[i])
			}
		}
	}
	if rows.NextBatch() != nil {
		t.Fatal("NextBatch after exhaustion returned rows")
	}

	// Mixed consumption: two Next calls, then NextBatch must pick up from
	// the third row without skipping the partially consumed chunk.
	rows2, err := q.Rows(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rows2.Close()
	for i := 0; i < 2; i++ {
		if !rows2.Next() {
			t.Fatal("cursor exhausted early")
		}
		if got := rows2.Row(); got[0] != want[i][0] || got[len(got)-1] != want[i][len(got)-1] {
			t.Fatalf("Next row %d = %v, want %v", i, got, want[i])
		}
	}
	if rows2.Row() == nil {
		t.Fatal("Row nil after successful Next")
	}
	n := 2
	for {
		batch := rows2.NextBatch()
		if batch == nil {
			break
		}
		for _, row := range batch {
			if row[0] != want[n][0] {
				t.Fatalf("mixed consumption diverged at row %d: %v want %v", n, row, want[n])
			}
			n++
		}
	}
	if rows2.Row() != nil {
		t.Fatal("Row still set after NextBatch; it tracks Next only")
	}
	if n != len(want) {
		t.Fatalf("mixed consumption yielded %d rows, want %d", n, len(want))
	}
}
