package core

import (
	"sync"

	"repro/internal/relational"
	"repro/internal/wcoj"
)

// XJoinStream evaluates the query like XJoin but streams validated answer
// tuples to emit instead of materializing them — Algorithm 1 with the
// final structural filter applied per tuple, in constant memory beyond the
// current binding. emit receives a transient tuple over the same attribute
// order XJoin would report (Stats.Order); returning false stops the join.
// The returned stats carry the explored per-stage sizes and validation
// counts of the completed portion.
//
// With Options.Parallelism the morsel-driven parallel executor drives the
// stream: workers validate tuples concurrently, emit calls are serialized
// (emit itself is never called concurrently) but arrive in
// scheduling-dependent order, and both Options.Limit and an emit returning
// false — the Exists path — short-circuit every worker through the
// executor's shared stop flag.
//
// With Options.Context the same stop flag is flipped when the context
// ends: the run returns the statistics of the completed portion with
// Stats.Cancelled set, alongside an error matching ErrCancelled and the
// context's own error. Cancellation latency is bounded by one morsel's
// work; emit is never called after the executor observed the flag.
//
// Failure semantics mirror XJoin: a recovered engine panic returns the
// statistics of the completed portion with Stats.Internal set, alongside
// an error matching ErrInternal; a budget-refused index build reruns in
// the degraded configuration (Stats.Degraded), but — since emitted tuples
// cannot be recalled — only when nothing was emitted yet; otherwise
// ErrBudgetExceeded surfaces with the partial statistics.
func XJoinStream(q *Query, opts Options, emit func(relational.Tuple) bool) (*Stats, error) {
	out := func(_ int, _ wcoj.OrdKey, t relational.Tuple) (bool, bool) { return true, emit(t) }
	if opts.workers() > 1 {
		// Workers validate concurrently; delivery is serialized, and once
		// emit has declined no later tuple reaches it.
		var mu sync.Mutex
		stopped := false
		out = func(_ int, _ wcoj.OrdKey, t relational.Tuple) (bool, bool) {
			mu.Lock()
			defer mu.Unlock()
			if stopped {
				return false, false
			}
			stopped = !emit(t)
			return true, !stopped
		}
	}
	stats := new(Stats)
	err := q.run(opts, "xjoin-stream", "", stats, out)
	// Emitted tuples cannot be recalled, so a budget-refused attempt is
	// retried only while nothing has been delivered.
	if dopts, reason, ok := degradeOptions(opts, err, stats.Output); ok {
		err = q.run(dopts, "xjoin-stream", reason, stats, out)
	}
	return stats, err
}
