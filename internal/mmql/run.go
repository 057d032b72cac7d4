package mmql

import (
	"context"
	"fmt"
	"slices"
	"time"

	xmjoin "repro"
	"repro/internal/twig"
)

// Run executes a parsed statement against a database: equality selections
// on twig tags are pushed into the patterns as tag="value" filters, the
// multi-model query is evaluated with the requested algorithm, any
// remaining selections are applied to the result, and the SELECT list is
// projected or aggregated.
//
// EXISTS statements stream the join and stop at the first validated
// answer. LIMIT truncates the output rows; for a SELECT * with no
// post-join filters or aggregates it is additionally pushed into the
// engine, so the join itself terminates after LIMIT answers (projection
// with an explicit item list deduplicates, where an engine-side stop could
// silently drop distinct output rows — those cases limit post-hoc).
func Run(db *xmjoin.Database, st *Statement) (*Output, error) {
	return RunCtx(nil, db, st)
}

// RunCtx is Run bounded by ctx (nil = unbounded) with optional per-call
// ExecOptions: it is PrepareStatement + Prepared.ExecuteCtx on a plan used
// once, so cancellation or a deadline stops the join within one morsel's
// work and returns the partial output alongside an error matching
// xmjoin.ErrCancelled — the shell maps Ctrl-C onto this.
//
// EXPLAIN statements render the plan without executing. EXPLAIN ANALYZE
// statements execute for real — catalog effects, metrics and the
// slow-query log all see the run — under a trace, and the output's Text
// is the span tree: parse, prepare and plan times, every lazy index build
// the run admitted, and execution with per-level join counters.
func RunCtx(ctx context.Context, db *xmjoin.Database, st *Statement, opts ...xmjoin.ExecOptions) (*Output, error) {
	if st.Explain && !st.Analyze {
		text, err := Explain(db, st)
		if err != nil {
			return nil, err
		}
		return &Output{Text: text}, nil
	}
	var tr *xmjoin.Trace
	if st.Analyze {
		tr = xmjoin.NewTrace(st.label())
		if st.parseDur > 0 {
			tr.Add("parse", st.parseDur)
		}
	}
	start := time.Now()
	p, err := prepare(ctx, db, st, tr)
	if err != nil {
		return nil, err
	}
	tr.Add("prepare", time.Since(start))
	out, err := p.ExecuteCtx(ctx, opts...)
	if tr != nil && out != nil {
		tr.Finish()
		out = &Output{Text: tr.Render(), Stats: out.Stats}
	}
	return out, err
}

// RunString parses and executes src.
func RunString(db *xmjoin.Database, src string) (*Output, error) {
	return RunStringCtx(nil, db, src)
}

// RunStringCtx parses and executes src under ctx (see RunCtx).
func RunStringCtx(ctx context.Context, db *xmjoin.Database, src string) (*Output, error) {
	st, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return RunCtx(ctx, db, st)
}

// Explain renders the plan the statement's query would run (always the
// XJoin plan; the baseline has a fixed shape). Pushed-down selections are
// reflected in the plan's atom cardinalities.
func Explain(db *xmjoin.Database, st *Statement) (string, error) {
	q, _, err := assemble(db, st)
	if err != nil {
		return "", err
	}
	return q.Explain()
}

// assemble is the front half every statement shares: equality selections
// pushed into the twigs, the query built over them, the VIA algorithm and
// the label applied. It returns the selections that could not be pushed.
func assemble(db *xmjoin.Database, st *Statement) (*xmjoin.Query, []Filter, error) {
	twigs, remaining, err := pushdownFilters(st)
	if err != nil {
		return nil, nil, err
	}
	q, err := db.QueryOn(twigs, st.Tables...)
	if err != nil {
		return nil, nil, err
	}
	if err := applyAlgo(q, st.Algo); err != nil {
		return nil, nil, err
	}
	return q.WithLabel(st.label()), remaining, nil
}

// applyAlgo maps a VIA algorithm name onto the query's options — the one
// list of algorithms a statement may name: the posthoc and materialized
// variants pick those A-D modes, hybrid and binary select the cost-based
// planner's plan modes. "baseline" and plain "xjoin" leave the defaults.
func applyAlgo(q *xmjoin.Query, algo string) error {
	switch algo {
	case "", "xjoin", "baseline":
	case "xjoin-posthoc":
		q.WithAD(xmjoin.ADPostHoc)
	case "xjoin-materialized":
		q.WithAD(xmjoin.ADMaterialized)
	case "xjoin-hybrid":
		q.WithPlan(xmjoin.PlanHybrid)
	case "xjoin-binary":
		q.WithPlan(xmjoin.PlanBinary)
	default:
		return fmt.Errorf("mmql: unknown algorithm %q", algo)
	}
	return nil
}

// pushdownFilters rewrites WHERE selections on twig tags into tag="value"
// pattern filters and returns the rewritten patterns plus the selections
// that could not be pushed (attributes not in any twig, or conflicting
// with an existing filter — the latter are left to the post-filter, which
// then correctly yields the empty result).
func pushdownFilters(st *Statement) (twigs []xmjoin.TwigOn, remaining []Filter, err error) {
	patterns := make([]*twig.Pattern, len(st.Twigs))
	for i, src := range st.Twigs {
		patterns[i], err = twig.Parse(src.Pattern)
		if err != nil {
			return nil, nil, err
		}
	}
filters:
	for _, f := range st.Filters {
		for _, p := range patterns {
			n := p.NodeByTag(f.Attr)
			if n == nil {
				continue
			}
			switch n.ValueFilter {
			case "":
				n.ValueFilter = f.Value
				continue filters
			case f.Value:
				continue filters // already enforced
			default:
				// Contradicts an existing filter; let the post-filter
				// produce the (empty) answer rather than guessing here.
			}
		}
		remaining = append(remaining, f)
	}
	twigs = make([]xmjoin.TwigOn, len(patterns))
	for i, p := range patterns {
		twigs[i] = xmjoin.TwigOn{Doc: st.Twigs[i].Doc, Twig: p.String()}
	}
	return twigs, remaining, nil
}

// rowFilter resolves the residual WHERE filters against a row layout and
// returns the predicate a row passes when every filtered column holds its
// value; nil when there are no filters.
func rowFilter(attrs []string, filters []Filter) (func(row []string) bool, error) {
	if len(filters) == 0 {
		return nil, nil
	}
	cols := make([]int, len(filters))
	for i, f := range filters {
		if cols[i] = slices.Index(attrs, f.Attr); cols[i] < 0 {
			return nil, fmt.Errorf("mmql: WHERE references unknown attribute %q", f.Attr)
		}
	}
	return func(row []string) bool {
		for i, f := range filters {
			if row[cols[i]] != f.Value {
				return false
			}
		}
		return true
	}, nil
}
