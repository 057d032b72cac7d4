package mmql

import (
	"context"
	"fmt"
	"slices"

	xmjoin "repro"
	"repro/internal/core"
	"repro/internal/faultpoint"
)

// Prepared is an mmql statement frozen for repeated execution — the unit
// the serving layer caches, keyed by statement text. Prepare runs the
// whole front half of a statement once (parse already done, filter
// pushdown, query assembly, plan resolution via xmjoin's PreparedQuery)
// and keeps the residual post-join work (filters that could not be pushed,
// projection/aggregation items, a LIMIT that could not reach the engine)
// to replay per execution. Warm executions therefore perform pure join
// work against the database's shared catalog: zero parsing, zero
// planning, zero atom construction.
//
// A Prepared is immutable and safe for concurrent ExecuteCtx/Rows/Explain
// calls. EXPLAIN/EXPLAIN ANALYZE statements are not preparable (they
// describe one execution, not a reusable plan) — PrepareStatement rejects
// them, and VIA baseline (a materializing pipeline with no frozen plan);
// run those through RunCtx, which prepares them for one use.
type Prepared struct {
	st *Statement
	// q is the frozen plan; a VIA baseline statement carries its assembled
	// query in base instead.
	q         *xmjoin.PreparedQuery
	base      *xmjoin.Query
	remaining []Filter
}

// PrepareString parses and prepares src against db.
func PrepareString(db *xmjoin.Database, src string) (*Prepared, error) {
	return PrepareStringCtx(nil, db, src)
}

// PrepareStringCtx is PrepareString bounded by ctx: an already-ended
// context fails fast before any plan work.
func PrepareStringCtx(ctx context.Context, db *xmjoin.Database, src string) (*Prepared, error) {
	st, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return PrepareStatement(ctx, db, st)
}

// PrepareStatement prepares a parsed statement against db; see Prepared.
func PrepareStatement(ctx context.Context, db *xmjoin.Database, st *Statement) (*Prepared, error) {
	if st.Explain {
		return nil, fmt.Errorf("mmql: EXPLAIN statements are not preparable; use RunCtx")
	}
	if st.Algo == "baseline" {
		return nil, fmt.Errorf("mmql: VIA baseline is not preparable; use RunCtx")
	}
	return prepare(ctx, db, st, nil)
}

// prepare is PrepareStatement without the reusability checks: RunCtx
// executes what it returns exactly once, under tr when non-nil.
func prepare(ctx context.Context, db *xmjoin.Database, st *Statement, tr *xmjoin.Trace) (*Prepared, error) {
	if err := faultpoint.Inject("mmql.prepare"); err != nil {
		return nil, err
	}
	q, remaining, err := assemble(db, st)
	if err != nil {
		return nil, err
	}
	q.WithTrace(tr)
	// LIMIT pushdown: safe exactly when the engine's answer tuples map 1:1
	// to output rows (SELECT * keeps the engine's set semantics) and
	// nothing downstream can discard rows.
	if st.Limit > 0 && st.Items == nil && len(remaining) == 0 && !st.Exists {
		q.WithLimit(st.Limit)
	}
	p := &Prepared{st: st, remaining: remaining}
	if st.Algo == "baseline" {
		p.base = q
		return p, nil
	}
	if p.q, err = q.PrepareCtx(ctx); err != nil {
		return nil, err
	}
	return p, nil
}

// Statement returns the prepared statement (callers must not mutate it).
func (p *Prepared) Statement() *Statement { return p.st }

// Explain renders the frozen plan.
func (p *Prepared) Explain() (string, error) { return p.q.Explain() }

// ExecuteCtx runs the statement over the frozen plan, with per-call
// ExecOptions — the serving layer passes Parallelism and relies on the
// context for deadlines.
//
// The deadline covers the whole call, not only the join: a run whose
// context ended before its output was assembled — mid-join, or in the
// post-join filtering, sorting and decoding — returns the output built
// from the rows found (Stats.Cancelled set) alongside an error matching
// both xmjoin.ErrCancelled and the context's error, so servers can
// deliver partial or late answers with an honest marker instead of
// nothing.
func (p *Prepared) ExecuteCtx(ctx context.Context, opts ...xmjoin.ExecOptions) (*Output, error) {
	if p.st.Exists {
		return p.executeExists(ctx, opts...)
	}
	var res *xmjoin.Result
	var execErr error
	if p.base != nil {
		res, execErr = p.base.ExecBaselineCtx(ctx) // takes no per-call options
	} else {
		res, execErr = p.q.ExecuteCtx(ctx, opts...)
	}
	if res == nil {
		return nil, execErr
	}
	out, err := p.finish(res)
	if err != nil {
		return nil, err
	}
	if execErr == nil && ctx != nil && ctx.Err() != nil {
		execErr = core.Cancelled(ctx.Err())
		out.Stats.Cancelled = true
	}
	return out, execErr
}

// finish applies the residual post-join work to a materialized result:
// the filters, then aggregation over the decoded rows or, for a plain
// SELECT, selectOutput.
func (p *Prepared) finish(res *xmjoin.Result) (*Output, error) {
	if err := faultpoint.Inject("mmql.finish"); err != nil {
		return nil, err
	}
	keep, err := rowFilter(res.Attrs(), p.remaining)
	if err != nil {
		return nil, err
	}
	if keep != nil {
		res = res.Filter(keep)
	}
	var out *Output
	if p.st.HasAggregates() || len(p.st.GroupBy) > 0 {
		rows := make([][]string, res.Len())
		for i := range rows {
			rows[i] = res.Row(i)
		}
		if out, err = aggregate(res.Attrs(), rows, p.st.Items, p.st.GroupBy); err != nil {
			return nil, err
		}
		if p.st.Limit > 0 && len(out.Rows) > p.st.Limit {
			out.Rows = out.Rows[:p.st.Limit]
		}
	} else if out, err = selectOutput(res, p.st.Items, p.st.Limit); err != nil {
		return nil, err
	}
	stats := res.Stats()
	out.Stats = &stats
	return out, nil
}

// selectOutput answers a plain SELECT: the result projected onto the
// select list (nil = all columns), sorted in string order while still in
// dictionary ids, then decoded one output row at a time up to the LIMIT.
// Distinct ids can decode to one string (a structural node and the text
// "<node#N>"); sorting puts such rows next to each other, so dropping a
// row equal to its predecessor deduplicates the output.
func selectOutput(res *xmjoin.Result, items []SelectItem, limit int) (*Output, error) {
	if items != nil {
		attrs := make([]string, len(items))
		for i, it := range items {
			if !slices.Contains(res.Attrs(), it.Attr) {
				return nil, fmt.Errorf("mmql: SELECT references unknown attribute %q", it.Attr)
			}
			attrs[i] = it.Attr
		}
		var err error
		if res, err = res.Project(attrs...); err != nil {
			return nil, err
		}
	}
	res.Sort()
	out := &Output{Attrs: res.Attrs()}
	n := res.Len()
	if limit > 0 {
		n = min(n, limit)
	}
	if n > 0 {
		out.Rows = make([][]string, 0, n)
	}
	for i := 0; i < res.Len() && len(out.Rows) < n; i++ {
		row := res.Row(i)
		if k := len(out.Rows); k > 0 && slices.Equal(row, out.Rows[k-1]) {
			continue
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// executeExists answers an EXISTS statement, always streaming: without
// residual post-join filters it stops at the first validated answer; with
// them it streams on, applying the filters per row, and stops at the
// first row that survives — never materializing the result either way.
func (p *Prepared) executeExists(ctx context.Context, opts ...xmjoin.ExecOptions) (*Output, error) {
	keep, err := rowFilter(p.q.Order(), p.remaining)
	if err != nil {
		return nil, err
	}
	var found bool
	if keep == nil {
		if found, err = p.q.ExistsCtx(ctx, opts...); err != nil {
			return nil, err
		}
	} else if _, err := p.q.ExecuteStreamCtx(ctx, func(row []string) bool {
		found = keep(row)
		return !found // keep streaming past filtered-out rows
	}, opts...); err != nil && !found {
		// A true answer seen before the context ended is definitive;
		// otherwise the cancellation (or failure) is the answer.
		return nil, err
	}
	return &Output{Attrs: []string{"exists"}, Rows: [][]string{{fmt.Sprint(found)}}}, nil
}

// StreamRows is a pull cursor over a prepared statement's streamed
// answers: an xmjoin.Rows with the statement's residual filters,
// projection, and LIMIT applied per chunk. One goroutine per cursor, and
// always Close (see xmjoin.Rows).
type StreamRows struct {
	rows  *xmjoin.Rows
	attrs []string
	cols  []int                   // projection: output column -> engine row position
	keep  func(row []string) bool // residual filters; nil keeps every row
	limit int
	n     int
	done  bool
}

// Rows starts the streaming execution and returns the cursor. Only
// streamable statements qualify (see Statement.Streamable); others return
// an error — execute those with ExecuteCtx.
func (p *Prepared) Rows(ctx context.Context, opts ...xmjoin.ExecOptions) (*StreamRows, error) {
	if !p.st.Streamable() {
		return nil, fmt.Errorf("mmql: statement is not streamable (aggregates, GROUP BY, EXISTS, EXPLAIN or VIA baseline); use ExecuteCtx")
	}
	order := p.q.Order()
	var attrs []string
	var cols []int
	if p.st.Items == nil {
		attrs = order
		cols = nil // identity
	} else {
		pos := make(map[string]int, len(order))
		for i, a := range order {
			pos[a] = i
		}
		for _, it := range p.st.Items {
			c, ok := pos[it.Attr]
			if !ok {
				return nil, fmt.Errorf("mmql: SELECT references unknown attribute %q", it.Attr)
			}
			cols = append(cols, c)
			attrs = append(attrs, it.Attr)
		}
	}
	keep, err := rowFilter(order, p.remaining)
	if err != nil {
		return nil, err
	}
	rows, err := p.q.Rows(ctx, opts...)
	if err != nil {
		return nil, err
	}
	return &StreamRows{rows: rows, attrs: attrs, cols: cols, keep: keep, limit: p.st.Limit}, nil
}

// Columns returns the streamed row layout.
func (s *StreamRows) Columns() []string { return append([]string(nil), s.attrs...) }

// NextBatch returns the next chunk of answers — residual filters applied,
// projected to Columns, bounded by the statement's LIMIT — or nil when
// the stream is exhausted (consult Err). Chunks are never empty; a chunk
// whose rows are all filtered out is skipped, not returned empty.
func (s *StreamRows) NextBatch() [][]string {
	for !s.done {
		batch := s.rows.NextBatch()
		if batch == nil {
			s.done = true
			return nil
		}
		out := batch[:0]
		for _, row := range batch {
			if s.keep != nil && !s.keep(row) {
				continue
			}
			if s.cols != nil {
				pr := make([]string, len(s.cols))
				for i, c := range s.cols {
					pr[i] = row[c]
				}
				row = pr
			}
			out = append(out, row)
			s.n++
			if s.limit > 0 && s.n >= s.limit {
				s.done = true
				break
			}
		}
		if len(out) > 0 {
			return out
		}
	}
	return nil
}

// Err reports the error that ended the stream (see xmjoin.Rows.Err); a
// LIMIT-satisfied early close is not an error.
func (s *StreamRows) Err() error {
	if s.done && s.limit > 0 && s.n >= s.limit {
		return nil
	}
	return s.rows.Err()
}

// Stats returns the run's statistics once the stream ended.
func (s *StreamRows) Stats() (xmjoin.Stats, bool) { return s.rows.Stats() }

// Close stops the execution and releases the cursor; idempotent.
func (s *StreamRows) Close() error {
	err := s.rows.Close()
	if s.done && s.limit > 0 && s.n >= s.limit {
		return nil
	}
	return err
}
