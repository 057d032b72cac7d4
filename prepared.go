package xmjoin

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/relational"
)

// PreparedQuery is a query frozen for repeated execution — the serving
// shape of the engine. Prepare resolves the plan once (attribute priority,
// executor atom set, twig validators' inputs) and every Execute borrows
// the lazily built indexes from the database's shared catalog, so a warm
// execution performs pure join work: zero planning, zero atom
// construction, zero index builds (verifiable via the CatalogMisses
// counter in the result's Stats).
//
// A PreparedQuery is immutable and safe for concurrent Execute /
// ExecuteStream / Exists / Rows calls, including with
// ExecOptions.Parallelism driving the morsel executor — concurrent
// executions share one atom set and one catalog. Every execution method
// has a *Ctx form taking a context that cancels or deadlines the run;
// serving handlers should always pass the request context so abandoned
// clients stop paying for worst-case joins.
type PreparedQuery struct {
	db    *Database
	q     *core.Query
	opts  core.Options
	label string
}

// Prepare freezes the query's current options into a PreparedQuery:
// plan-shaping choices (WithOrder/WithAD/WithPlan) are resolved now, and an
// invalid explicit order or a planning failure surfaces here instead of at
// execution. The frozen order is a copy, so the original Query remains
// usable and unaffected by later With* calls on it or by changes to the
// slice passed to WithOrder.
func (q *Query) Prepare() (*PreparedQuery, error) { return q.PrepareCtx(nil) }

// PrepareCtx is Prepare bounded by ctx: an already-cancelled context (or
// an expired deadline) fails fast with an error matching ErrCancelled,
// before any plan resolution or atom warming, and the index builds the
// hybrid planner needs (PlanHybrid, PlanBinary) run under ctx, so a
// context that ends meanwhile fails the same way. The
// frozen plan keeps no context: each execution brings its own.
func (q *Query) PrepareCtx(ctx context.Context) (*PreparedQuery, error) {
	o := q.opts
	o.Context = ctx
	opts, err := core.Prepare(q.q, o)
	if err != nil {
		return nil, err
	}
	opts.Context = nil
	return &PreparedQuery{db: q.db, q: q.q, opts: opts, label: q.label}, nil
}

// Prepare assembles and freezes a query in one step — the common serving
// call. Plan options beyond the defaults are chosen by building the query
// explicitly: db.Query(...).WithOrder(...).Prepare().
func (db *Database) Prepare(twigExpr string, tableNames ...string) (*PreparedQuery, error) {
	return db.PrepareCtx(nil, twigExpr, tableNames...)
}

// PrepareCtx is Database.Prepare bounded by ctx; see Query.PrepareCtx.
func (db *Database) PrepareCtx(ctx context.Context, twigExpr string, tableNames ...string) (*PreparedQuery, error) {
	q, err := db.Query(twigExpr, tableNames...)
	if err != nil {
		return nil, err
	}
	return q.PrepareCtx(ctx)
}

// PrepareOn is Prepare over multi-document twig inputs (see QueryOn).
func (db *Database) PrepareOn(twigs []TwigOn, tableNames ...string) (*PreparedQuery, error) {
	return db.PrepareOnCtx(nil, twigs, tableNames...)
}

// PrepareOnCtx is PrepareOn bounded by ctx; see Query.PrepareCtx.
func (db *Database) PrepareOnCtx(ctx context.Context, twigs []TwigOn, tableNames ...string) (*PreparedQuery, error) {
	q, err := db.QueryOn(twigs, tableNames...)
	if err != nil {
		return nil, err
	}
	return q.PrepareCtx(ctx)
}

// execOpts merges per-call knobs over the frozen plan through the shared
// options-building path.
func (p *PreparedQuery) execOpts(ctx context.Context, opts []ExecOptions) core.Options {
	return buildExecOptions(p.opts, ctx, opts)
}

// Order returns the frozen attribute expansion order — the column order of
// every execution's rows.
func (p *PreparedQuery) Order() []string {
	return append([]string(nil), p.opts.Order...)
}

// Attrs returns the query's output attributes.
func (p *PreparedQuery) Attrs() []string { return p.q.Attrs() }

// Execute runs the worst-case optimal join over the frozen plan. Safe for
// concurrent use.
func (p *PreparedQuery) Execute(opts ...ExecOptions) (*Result, error) {
	return p.ExecuteCtx(nil, opts...)
}

// ExecuteCtx is Execute bounded by ctx: when the context is cancelled or
// its deadline expires the run stops within one morsel's work and returns
// the partial result found so far (Stats().Cancelled set) together with
// an error matching ErrCancelled and the context's error.
func (p *PreparedQuery) ExecuteCtx(ctx context.Context, opts ...ExecOptions) (*Result, error) {
	start := time.Now()
	r, err := core.XJoin(p.q, p.execOpts(ctx, opts))
	return p.db.observed(p.label, start, r, err)
}

// ExecuteStream streams validated answers (decoded to strings, in Order)
// through emit without materializing the result; returning false stops the
// join. Safe for concurrent use — each call streams independently.
func (p *PreparedQuery) ExecuteStream(emit func(row []string) bool, opts ...ExecOptions) (Stats, error) {
	return p.ExecuteStreamCtx(nil, emit, opts...)
}

// ExecuteStreamCtx is ExecuteStream bounded by ctx; a cancelled run
// returns the statistics of the completed portion (Cancelled set) with an
// error matching ErrCancelled. emit is never called after the executor
// observed the cancellation.
func (p *PreparedQuery) ExecuteStreamCtx(ctx context.Context, emit func(row []string) bool, opts ...ExecOptions) (Stats, error) {
	return streamDecoded(p.db, p.label, p.q, p.execOpts(ctx, opts), emit)
}

// Exists reports whether the query has at least one answer, stopping the
// streaming join at the first validated tuple.
func (p *PreparedQuery) Exists(opts ...ExecOptions) (bool, error) {
	return p.ExistsCtx(nil, opts...)
}

// ExistsCtx is Exists bounded by ctx. A true answer found before the
// context ended is definitive and returned with a nil error; a run
// cancelled before any answer returns false with an ErrCancelled-matching
// error, since "no answer so far" proves nothing.
func (p *PreparedQuery) ExistsCtx(ctx context.Context, opts ...ExecOptions) (bool, error) {
	start := time.Now()
	found := false
	st, err := core.XJoinStream(p.q, p.execOpts(ctx, opts), func(relational.Tuple) bool {
		found = true
		return false
	})
	p.db.observeRun(p.label, start, st, err)
	if found {
		return true, nil
	}
	return false, err
}

// Explain renders the frozen plan (see Query.Explain).
func (p *PreparedQuery) Explain() (string, error) {
	return core.Explain(p.q, p.opts)
}
