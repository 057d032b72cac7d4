package xmjoin

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/relational"
	"repro/internal/xmldb"
)

// Stats re-exports the execution statistics every run reports (see the
// core package for the field documentation): per-stage intermediate
// sizes, validation counts, index and catalog observability, the ADMode
// label, and the Cancelled marker for runs abandoned via a context.
type Stats = core.Stats

// ExecOptions are the per-execution knobs — the ones that do not change a
// frozen plan. They appear as the optional trailing argument of every
// PreparedQuery execution method (and its Rows/All cursors). Zero fields
// keep the values frozen at Prepare time; non-zero fields override them
// for this call only.
type ExecOptions struct {
	// Parallelism runs this execution morsel-driven over n workers
	// (negative = GOMAXPROCS); see Query.WithParallelism. To force a
	// serial execution over a plan frozen with parallelism, pass 1
	// (0 means "keep frozen").
	Parallelism int
	// Limit stops this execution after n validated answers; see
	// Query.WithLimit. To run unlimited over a plan frozen with a limit,
	// pass any negative value (0 means "keep frozen").
	Limit int
	// Trace attaches a per-query trace to this execution only: plan
	// selection, every lazy index build the run admits, and execution
	// with per-level counters become timed spans (see Trace and
	// Query.WithTrace). nil keeps the value frozen at Prepare time —
	// usually no trace, costing one pointer test per phase.
	Trace *Trace
}

// buildExecOptions is the single core.Options-building path every
// execution bottoms out in: Query.With* chaining writes the base options,
// PreparedQuery freezes them, and per-call knobs — a ctx argument and/or
// one ExecOptions — are layered on top here.
func buildExecOptions(base core.Options, ctx context.Context, opts []ExecOptions) core.Options {
	o := base
	if len(opts) > 0 {
		e := opts[0]
		if e.Parallelism != 0 {
			o.Parallelism = e.Parallelism
		}
		if e.Limit != 0 {
			o.Limit = e.Limit
		}
		if e.Trace != nil {
			o.Trace = e.Trace
		}
	}
	if ctx != nil {
		o.Context = ctx
	}
	return o
}

// streamDecoded drives the streaming executor over the built options,
// decoding each validated tuple into a reused string row for emit — the
// one implementation behind Query.ExecXJoinStream[Ctx],
// PreparedQuery.ExecuteStream[Ctx] and the Rows cursor, and therefore
// the one place streaming runs report into the metrics registry and
// slow-query log. On cancellation it returns the partial statistics
// (Cancelled set) alongside the error.
func streamDecoded(db *Database, label string, q *core.Query, o core.Options, emit func(row []string) bool) (Stats, error) {
	start := time.Now()
	var decoded []string
	stats, err := core.XJoinStream(q, o, func(t relational.Tuple) bool {
		if decoded == nil {
			decoded = make([]string, len(t))
		}
		for i, v := range t {
			decoded[i] = xmldb.DisplayValue(db.dict, v)
		}
		return emit(decoded)
	})
	db.observeRun(label, start, stats, err)
	if stats == nil {
		return Stats{}, err
	}
	return *stats, err
}
