package xmjoin

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"sync"

	"repro/internal/core"
	"repro/internal/faultpoint"
)

// The Rows channel carries chunks of rows, not single rows: crossing a
// channel (and waking the consumer) per row is most of a cursor's overhead
// on fast joins, so the producer coalesces. rowsChunkCap bounds a chunk
// and rowsBuffer the chunks in flight, so an unread cursor suspends the
// join after at most rowsBuffer*rowsChunkCap decoded rows plus one pending
// chunk (backpressure). The producer ramps its flush threshold 1, 2, 4, …
// rowsChunkCap so the first answer still crosses immediately — first-row
// latency stays one row's work, only the steady state is batched.
const (
	rowsChunkCap = 64
	rowsBuffer   = 4
)

// Rows is a pull-based cursor over a streaming join — the database/sql
// shape of the engine. The executor runs in one managed goroutine,
// producing validated answers into a small buffer of row chunks; Next
// blocks until the next answer (backpressure: an unread cursor suspends
// the join after a few hundred rows rather than enumerating a worst-case
// result), NextBatch drains a chunk at a time for consumers that can take
// answers in runs, and Close
// — or the context given at creation ending — stops the executor within
// one morsel's work and releases its pooled iterators. Always call Close;
// it is idempotent, runs fine after Next returned false, and is the only
// leak-proof exit for a partially read cursor whose context never ends.
//
// A Rows is for one goroutine (like sql.Rows); open one cursor per
// consumer — the underlying Query/PreparedQuery is safe to share.
//
//	rows, err := q.Rows(ctx)
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//		use(rows.Row())
//	}
//	if err := rows.Err(); err != nil { ... }
type Rows struct {
	parent context.Context // the caller's context, for Err/Close semantics
	cancel context.CancelFunc
	cols   []string
	rows   chan [][]string
	done   chan struct{} // closed after stats/err are written
	close  sync.Once

	batch    [][]string // current chunk being drained by Next
	bpos     int
	cur      []string
	finished bool
	stats    Stats
	err      error
}

// startRows launches run — a streaming execution taking the derived
// context — in the cursor's managed goroutine.
func startRows(ctx context.Context, cols []string, run func(ctx context.Context, emit func(row []string) bool) (Stats, error)) *Rows {
	if ctx == nil {
		ctx = context.Background()
	}
	rctx, cancel := context.WithCancel(ctx)
	r := &Rows{
		parent: ctx,
		cancel: cancel,
		cols:   cols,
		rows:   make(chan [][]string, rowsBuffer),
		done:   make(chan struct{}),
	}
	go func() {
		// The closes run unconditionally — a panic anywhere in the executor
		// (or in the caller's emit path) must still end the stream, or Next
		// and Close would block forever on a dead producer. The recovered
		// panic surfaces through Err as an ErrInternal-matching error.
		defer func() {
			if v := recover(); v != nil {
				r.err = core.Internal(fmt.Errorf("rows executor panic: %v", v))
			}
			// done closes first: a consumer that sees the stream end must
			// find Err and Stats final.
			close(r.done)
			close(r.rows)
		}()
		var (
			pending [][]string // chunk under construction
			cells   []string   // one backing block for the chunk's cells
			target  = 1        // flush threshold, ramping to rowsChunkCap
		)
		flush := func() bool {
			if len(pending) == 0 {
				return true
			}
			if err := faultpoint.Inject("xmjoin.rows.send"); err != nil {
				panic(err)
			}
			select {
			case r.rows <- pending:
			case <-rctx.Done():
				// Close or the caller's context: stop the executor; the
				// run function reports the cancellation through err.
				return false
			}
			pending, cells = nil, nil
			if target < rowsChunkCap {
				target *= 2
			}
			return true
		}
		stats, err := run(rctx, func(row []string) bool {
			// The executor reuses its row buffer; the cursor hands rows to
			// another goroutine, so each crosses as its own copy — carved
			// from one per-chunk block, so a chunk costs two allocations
			// however many rows it carries.
			if pending == nil {
				pending = make([][]string, 0, target)
				cells = make([]string, 0, target*len(row))
			}
			off := len(cells)
			cells = append(cells, row...)
			pending = append(pending, cells[off:len(cells):len(cells)])
			if len(pending) >= target {
				return flush()
			}
			return true
		})
		// Answers produced before an error or cancellation are still valid;
		// deliver the partial chunk before ending the stream.
		flush()
		r.stats, r.err = stats, err
	}()
	return r
}

// Columns returns the row layout: the plan's attribute expansion order.
func (r *Rows) Columns() []string { return append([]string(nil), r.cols...) }

// Next advances to the next answer, reporting false when the cursor is
// exhausted — result complete, error, or cancellation (consult Err to
// tell which). Every row it yields is a complete validated answer, even
// on a run cancelled midway.
func (r *Rows) Next() bool {
	if r.finished {
		return false
	}
	if r.bpos >= len(r.batch) {
		batch, ok := <-r.rows
		if !ok {
			r.finished = true
			r.batch, r.cur = nil, nil
			return false
		}
		r.batch, r.bpos = batch, 0
	}
	r.cur = r.batch[r.bpos]
	r.bpos++
	return true
}

// NextBatch advances by a whole chunk: it returns the executor's next run
// of answers — every element a complete validated row, in the same order
// Next would yield them — or nil when the cursor is exhausted (consult Err,
// as after Next returning false). Chunks are never empty and their size is
// the producer's batching (up to 64 rows), not a caller contract. The
// returned rows are the caller's to keep. Row and Scan track Next only;
// after NextBatch they return nothing until the next Next. Mixing the two
// is fine: NextBatch first drains whatever the last partially consumed
// chunk still holds.
func (r *Rows) NextBatch() [][]string {
	if r.finished {
		return nil
	}
	r.cur = nil
	if r.bpos < len(r.batch) {
		b := r.batch[r.bpos:]
		r.batch, r.bpos = nil, 0
		return b
	}
	batch, ok := <-r.rows
	if !ok {
		r.finished = true
		r.batch = nil
		return nil
	}
	return batch
}

// Row returns the current answer (decoded strings in Columns order). The
// slice is the caller's to keep; it is not reused by later Next calls.
// It returns nil before the first Next and after Next returned false.
func (r *Rows) Row() []string { return r.cur }

// Scan copies the current answer into dests, one per column.
func (r *Rows) Scan(dests ...*string) error {
	if r.cur == nil {
		return errors.New("xmjoin: Scan called without a successful Next")
	}
	if len(dests) != len(r.cur) {
		return fmt.Errorf("xmjoin: Scan got %d destinations, row has %d columns", len(dests), len(r.cur))
	}
	for i, d := range dests {
		*d = r.cur[i]
	}
	return nil
}

// Err returns the error that ended the iteration: nil while rows are
// still being produced, nil after a clean end, an ErrCancelled-matching
// error when the creation context ended mid-run, an ErrInternal-matching
// error when the executor died on a recovered panic (rows delivered
// before it remain valid answers), or the executor's failure. Like
// sql.Rows, a Close before exhaustion does not itself produce an error.
func (r *Rows) Err() error {
	select {
	case <-r.done:
	default:
		return nil // still running; no terminal error yet
	}
	if r.err != nil && errors.Is(r.err, ErrCancelled) && r.parent.Err() == nil {
		// The cancellation was our own Close, not the caller's context:
		// an early exit from the read loop, not an error.
		return nil
	}
	return r.err
}

// Stats returns the run's statistics once the executor has finished
// (Next returned false, or Close was called); ok is false while the run
// is still in flight. After a cancelled run the statistics describe the
// completed portion and Cancelled is set.
func (r *Rows) Stats() (stats Stats, ok bool) {
	select {
	case <-r.done:
		return r.stats, true
	default:
		return Stats{}, false
	}
}

// Close stops the executor (within one morsel's work, if still running),
// waits for its goroutine to exit — guaranteeing the pooled iterators are
// released and nothing leaks — and retires the cursor. It is idempotent
// and returns the run's terminal error under the same rules as Err.
func (r *Rows) Close() error {
	r.close.Do(func() {
		r.cancel()
		// Unblock the executor's pending sends, then wait for it to
		// finish writing stats/err and exit.
		for range r.rows {
		}
		<-r.done
		r.finished = true
		r.cur = nil
	})
	return r.Err()
}

// Rows starts the streaming join and returns a pull-based cursor over its
// answers; see Rows for the contract. It plans once, under ctx, exactly
// as PrepareCtx does, so Columns names the order the run expands in. The
// join runs in a managed goroutine from this call on — always Close the
// cursor (ctx ending also stops it). Errors returned eagerly are the
// plan's: a context that is already over or ends while planning builds,
// an invalid explicit order, a failing hybrid plan. Execution errors surface
// through Err after Next returns false, like database/sql.
func (q *Query) Rows(ctx context.Context) (*Rows, error) {
	p, err := q.PrepareCtx(ctx)
	if err != nil {
		return nil, err
	}
	return p.Rows(ctx)
}

// Rows is Query.Rows over the frozen plan, with per-call ExecOptions. Safe
// to call from any number of goroutines; each cursor owns an independent
// execution.
func (p *PreparedQuery) Rows(ctx context.Context, opts ...ExecOptions) (*Rows, error) {
	if ctx != nil && ctx.Err() != nil {
		return nil, core.Cancelled(ctx.Err())
	}
	return startRows(ctx, p.Order(), func(rctx context.Context, emit func([]string) bool) (Stats, error) {
		return p.ExecuteStreamCtx(rctx, emit, opts...)
	}), nil
}

// allSeq adapts a Rows constructor to a range-over-func iterator: rows
// stream as ([]string, nil) pairs and a terminal failure (including
// cancellation) arrives as one final (nil, err) pair. The cursor is
// always closed, whether the range completes or breaks early.
func allSeq(open func() (*Rows, error)) iter.Seq2[[]string, error] {
	return func(yield func([]string, error) bool) {
		rows, err := open()
		if err != nil {
			yield(nil, err)
			return
		}
		defer rows.Close()
		for rows.Next() {
			if !yield(rows.Row(), nil) {
				return
			}
		}
		if err := rows.Err(); err != nil {
			yield(nil, err)
		}
	}
}

// All returns the query's answers as a range-over-func sequence backed by
// a Rows cursor — `for row, err := range q.All(ctx)` — closing the cursor
// however the loop exits. A terminal error (cancellation included) is
// yielded as the final (nil, err) element; rows before it are valid.
func (q *Query) All(ctx context.Context) iter.Seq2[[]string, error] {
	return allSeq(func() (*Rows, error) { return q.Rows(ctx) })
}

// All is Query.All over the frozen plan with per-call ExecOptions.
func (p *PreparedQuery) All(ctx context.Context, opts ...ExecOptions) iter.Seq2[[]string, error] {
	return allSeq(func() (*Rows, error) { return p.Rows(ctx, opts...) })
}
