package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/relational"
	"repro/internal/wcoj"
	"repro/internal/xmldb/structix"
)

// ADMode selects how the twig's cut ancestor-descendant edges participate
// in the join.
type ADMode int

const (
	// ADLazy, the default, filters intermediate results through
	// structix.RegionADAtom: the region-interval structural index
	// (internal/xmldb/structix) makes the A-D atoms free to build — O(n)
	// memory, lazy stab-query cursors, no pair materialization.
	ADLazy ADMode = iota
	// ADPostHoc is the paper's plain Algorithm 1: A-D edges are enforced
	// only by the final structural validation.
	ADPostHoc
	// ADMaterialized filters through the original core.ADAtom, which
	// materializes the full value-level A-D relation up front — quadratic
	// in the worst case. Kept as the oracle the lazy path is tested and
	// benchmarked against.
	ADMaterialized
)

// String names the mode for statistics output.
func (m ADMode) String() string {
	switch m {
	case ADLazy:
		return "lazy"
	case ADPostHoc:
		return "posthoc"
	case ADMaterialized:
		return "materialized"
	}
	return fmt.Sprintf("ADMode(%d)", int(m))
}

// Options tunes an XJoin run.
type Options struct {
	// Context, when non-nil, bounds the run: cancelling it (or its
	// deadline expiring) stops every executor — serial or morsel-parallel
	// — within one morsel's work regardless of result size, the run
	// returns an error matching ErrCancelled and the context's own error,
	// and the partial result/statistics gathered so far come back with
	// Stats.Cancelled set. A nil Context (or one that can never be
	// cancelled, like context.Background) takes the exact pre-context
	// fast path: no watcher goroutine, no flag, no allocation.
	//
	// Options travels by value through one execution, so carrying the
	// context here is the usual per-call plumbing, not a stored context.
	Context context.Context
	// Order is the explicit attribute priority PA; when nil, the run
	// expands in DefaultOrder.
	Order []string
	// AD selects how cut A-D twig edges are handled; the zero value is
	// ADLazy, so the paper's future-work extension ("filtering
	// infeasible intermediate results ... during the joining") is on by
	// default. Use ADPostHoc for the paper's plain Algorithm 1 and
	// ADMaterialized for the quadratic oracle index.
	AD ADMode
	// Parallelism runs the join morsel-driven over this many workers:
	// 0 or 1 runs serially, inline on the caller's goroutine; negative
	// uses GOMAXPROCS. Workers stream the depth-first executor over
	// morsels of the first attribute's cursor range and validate answers
	// as they appear, so no stage is ever materialized. A complete
	// unlimited run reports the serial run's output and statistics
	// exactly, whatever the worker count.
	Parallelism int
	// Limit, when positive, stops the join after that many validated
	// answers — early termination (existence checks are Limit=1). Every
	// run counts validated answers in one place, after validation and
	// before delivery, and stops the executor — every worker of it — at
	// the limit, so a limited run returns exactly min(Limit, |answers|)
	// tuples (under Parallelism a scheduling-dependent subset of the
	// full answer) without enumerating the rest.
	Limit int
	// Trace, when non-nil, collects the run's timed span tree — plan/order
	// selection, execution, every lazy index build, and per-level join
	// counters — for EXPLAIN ANALYZE. The nil fast path costs one pointer
	// test per phase (never per tuple): the per-level counters ride the
	// statistics the executors gather anyway.
	Trace *obs.Trace
	// Plan selects the executor strategy mix: PlanWCOJ (the zero value)
	// runs the pure generic join, PlanHybrid materializes the cost-accepted
	// acyclic fringe with binary hash joins and keeps the GYO cyclic core
	// on the generic join, PlanBinary forces every component through hash
	// joins. All modes produce identical results; see PlanMode.
	Plan PlanMode
}

// algoLabel names the run for Stats.Algorithm: "xjoin", or "xjoin-hybrid"
// and "xjoin-binary" for the other plan modes, so the per-algorithm query
// metrics separate them. Stats.ADMode names the A-D mode.
func (o Options) algoLabel() string {
	if o.Plan == PlanWCOJ {
		return "xjoin"
	}
	return "xjoin-" + o.Plan.String()
}

// XJoin evaluates the query with Algorithm 1: a worst-case optimal
// attribute-at-a-time expansion over all atoms of both models, followed by
// structural validation of the twig on the candidate answers.
//
// Failure semantics: a run aborted by its context returns the partial
// result with an error matching ErrCancelled; a run aborted by a
// recovered engine panic returns the partial result with an error
// matching ErrInternal; a lazily built index refused by the catalog
// budget transparently reruns in the degraded post-hoc configuration
// (Stats.Degraded records why), so ErrBudgetExceeded only surfaces when
// no cheaper shape exists.
func XJoin(q *Query, opts Options) (*Result, error) {
	algo := opts.algoLabel()
	res, err := q.collect(opts, algo, "")
	// Nothing reaches the caller before XJoin returns, so a budget-refused
	// attempt can always be retried: its tuples are simply dropped.
	if dopts, reason, ok := degradeOptions(opts, err, 0); ok {
		return q.collect(dopts, algo, reason)
	}
	return res, err
}

// collect is one XJoin attempt: run with a collecting sink. Validated
// tuples are gathered per task and reassembled in task order, which for an
// unlimited run is exactly the serial executor's output sequence whatever
// the worker count (a serial run is one task).
func (q *Query) collect(opts Options, algo, degraded string) (*Result, error) {
	res := &Result{}
	col := wcoj.NewMorselCollector(opts.workers())
	err := q.run(opts, algo, degraded, &res.Stats, func(w int, ord wcoj.OrdKey, t relational.Tuple) (bool, bool) {
		col.Add(w, ord, t)
		return true, true
	})
	if err != nil && !res.Stats.Internal && !res.Stats.Cancelled {
		return nil, err
	}
	res.Attrs = res.Stats.Order
	res.Tuples = col.Tuples()
	if ctx := opts.Context; err == nil && ctx != nil && ctx.Err() != nil {
		// The answer is handed over only now: a context that ended while it
		// was being reassembled still cancels the run — indistinguishable
		// from stopping one tuple earlier, and the safe direction for
		// callers that retry.
		res.Stats.Cancelled = true
		err = Cancelled(ctx.Err())
	}
	return res, err
}

// sink receives the validated answers of one run. worker and ord are the
// executor's task coordinates (see wcoj.GenericJoinParallelMorsels; a
// serial run is worker 0, task nil): one worker's calls are sequential,
// different workers call concurrently. t is transient. took reports
// whether the sink accepted the tuple — it then counts toward Stats.Output
// — and more whether the run should continue.
type sink func(worker int, ord wcoj.OrdKey, t relational.Tuple) (took, more bool)

// workers resolves Options.Parallelism to the executor's worker count.
func (o Options) workers() int {
	if o.Parallelism < 0 || o.Parallelism > 1 {
		return wcoj.ResolveWorkers(max(o.Parallelism, 0))
	}
	return 1
}

// delivery is the per-tuple tail of a run, shared by all its workers:
// Algorithm 1's final filter ("Filter R by validating structure of Sx"),
// then the limit, then the sink.
type delivery struct {
	// validators are shared: hasWitness keeps no state between calls and
	// only reads the immutable document indexes.
	validators []validator
	out        sink
	limit      int64
	// claimed hands out the limit's emission slots; over-claims are
	// discarded, so exactly min(Limit, |answers|) tuples reach the sink.
	claimed atomic.Int64
	// tallies are per worker, so concurrent workers never share a counter.
	tallies []tally
}

// tally is one worker's delivery counters, padded to a cache line of its
// own: every delivered tuple bumps one.
type tally struct {
	removed, output int
	_               [48]byte
}

// put runs one candidate tuple through the tail; false stops the join.
func (d *delivery) put(w int, ord wcoj.OrdKey, t relational.Tuple) bool {
	for i := range d.validators {
		if !d.validators[i].hasWitness(t) {
			d.tallies[w].removed++
			return true
		}
	}
	last := false
	if d.limit > 0 {
		n := d.claimed.Add(1)
		if n > d.limit {
			return false
		}
		last = n == d.limit
	}
	took, more := d.out(w, ord, t)
	if took {
		d.tallies[w].output++
	}
	return more && !last
}

// run is the one execution spine behind XJoin and XJoinStream: Algorithm
// 1's attribute-at-a-time expansion over the atoms of both models with the
// final structural filter applied per tuple, so no unvalidated stage is
// ever materialized and a limit or a declining sink stops the join early.
// A serial run drives the streaming executor inline on the caller's
// goroutine; Options.Parallelism swaps in the morsel-driven executor, whose
// workers validate concurrently.
//
// algo labels the run and degraded carries the budget-fallback reason
// (empty for a first attempt). When the run fails before a plan exists,
// stats only records whether it was cancelled or hit an internal error;
// otherwise it describes the completed portion, whatever the error.
//
// Every index build of the run — planning's, the hybrid plan's, the
// validators', bindAtoms' and the executors' — runs under one build
// control (buildControl), so a dead context abandons whichever build is
// in flight. Those builds happen before the executor starts, so the whole
// run is an isolation boundary like the executors: a panic in it comes
// back as an error matching ErrInternal.
func (q *Query) run(opts Options, algo, degraded string, stats *Stats, out sink) (err error) {
	defer func() {
		if v := recover(); v != nil {
			stats.Internal = true
			err = Internal(&wcoj.PanicError{Value: v, Stack: debug.Stack()})
		}
	}()
	// fail is the one error mapping: a panic isolated at an executor
	// boundary becomes ErrInternal, a build abandoned on the ended context
	// the cancellation it is, everything else passes through.
	fail := func(err error) error {
		if isPanic(err) {
			stats.Internal = true
			return Internal(err)
		}
		if err = buildCancelled(opts.Context, err); errors.Is(err, ErrCancelled) {
			stats.Cancelled = true
		}
		return err
	}
	ctl := q.buildControl(opts)
	// The deferred End closes the span on the early exits; the explicit one
	// below fixes its duration before execution starts. Builds while
	// planning are its children.
	plan := opts.Trace.Start("plan")
	defer plan.End()
	ctl.Built = plan.BuildReporter()
	order, err := q.planOrder(opts)
	if err != nil {
		return fail(err)
	}
	// The labels are fixed before execution, so every exit below — done,
	// cancelled, failed — reports the same plan.
	*stats = Stats{Algorithm: algo, ADMode: q.adModeLabel(opts), Degraded: degraded, Plan: opts.planLabel(), Order: order}
	guard, err := newCancelGuard(opts.Context)
	if err != nil {
		// Already over before any atom or join work.
		stats.Cancelled = true
		return err
	}
	defer guard.stop()
	atoms := q.atoms(opts.AD)
	if len(atoms) == 0 {
		return fmt.Errorf("core: query has no atoms")
	}
	sopts := guard.streamOpts(ctl)
	if opts.Plan != PlanWCOJ {
		// Swap in the hybrid plan's atom list: the generic join below runs
		// unchanged over [retained atoms + materialized binary subplans],
		// with the same full attribute order.
		if atoms, err = q.hybridAtoms(opts, sopts, plan); err != nil {
			return fail(err)
		}
	}
	if plan != nil {
		plan.SetInt("atoms", int64(len(atoms)))
		plan.SetStr("order", strings.Join(order, " "))
		if opts.Plan != PlanWCOJ {
			plan.SetStr("plan_mode", opts.Plan.String())
		}
		plan.End()
	}

	workers := opts.workers()
	exec := opts.Trace.Start("execute")
	if exec != nil {
		exec.SetInt("workers", int64(workers))
		if degraded != "" {
			exec.SetStr("degraded", degraded)
		}
	}
	// Every lazy index build from here on becomes a timed child span.
	sopts.Build.Built = exec.BuildReporter()
	d := &delivery{out: out, limit: int64(opts.Limit), tallies: make([]tally, workers)}
	// The executors read every XML atom bound to its structures; the
	// statistics below keep reading the unbound atoms.
	bound := atoms
	if d.validators, err = q.validators(order, sopts.Build); err == nil {
		bound, err = bindAtoms(atoms, d.validators, sopts.Build)
	}
	if err != nil {
		exec.End()
		return fail(err)
	}
	var gj *wcoj.GenericJoinStats
	if opts.Parallelism < 0 || opts.Parallelism > 1 {
		// The deadline feeds the morsel scheduler's gate (zero: no gating).
		var deadline time.Time
		if opts.Context != nil {
			deadline, _ = opts.Context.Deadline()
		}
		gj, err = wcoj.GenericJoinParallelMorsels(bound, order, wcoj.ParallelOpts{StreamOpts: sopts, Workers: workers, Deadline: deadline},
			func(w int) func(wcoj.OrdKey, relational.Tuple) bool {
				return func(ord wcoj.OrdKey, t relational.Tuple) bool { return d.put(w, ord, t) }
			})
	} else {
		gj, err = wcoj.GenericJoinStreamOpts(bound, order, sopts,
			func(t relational.Tuple) bool { return d.put(0, nil, t) })
	}
	exec.End()
	// The executor has returned, so every worker has joined and the
	// tallies are quiescent; what was delivered before a failure is a
	// correct partial answer.
	for _, c := range d.tallies {
		stats.ValidationRemoved += c.removed
		stats.Output += c.output
	}
	if err != nil {
		return fail(err)
	}
	stats.Order = gj.Order // the executor's own copy, never the caller's slice
	stats.StageSizes = gj.StageSizes
	stats.PeakIntermediate = gj.PeakIntermediate
	stats.LeafBatches = gj.Batches
	stats.MorselSplits = gj.Splits
	stats.MorselSteals = gj.Steals
	stats.DeadlineStops = gj.DeadlineStops
	for _, s := range gj.StageSizes {
		stats.TotalIntermediate += s
	}
	addIndexStats(atoms, stats)
	q.addCatalogStats(stats)
	traceExecStats(exec, gj, stats)
	if cerr := guard.err(); cerr != nil {
		stats.Cancelled = true
		return cerr
	}
	if gj.DeadlineStops > 0 {
		// The deadline gate pre-empted the run at a morsel boundary,
		// possibly before the deadline itself passed (the EWMA said one
		// more morsel would not fit). Report the cancellation it is: the
		// partial answer stands, as with any cancelled run.
		stats.Cancelled = true
		return Cancelled(context.DeadlineExceeded)
	}
	return nil
}

// addIndexStats folds the table atoms' index observability counters and
// the per-document indexes behind any lazy A-D atoms into the run's
// statistics. Several atoms of one document share one
// structix.Index, so indexes are deduplicated by identity before summing.
func addIndexStats(atoms []wcoj.Atom, stats *Stats) {
	six := make(map[*structix.Index]bool)
	for _, a := range atoms {
		switch at := unwrapAtom(a).(type) {
		case *wcoj.MaterializedAtom:
			// A binary subplan's intermediate: its chain counters feed the
			// binary-side statistics, and the wrapped table's sorted-column
			// indexes count like any other table atom's.
			stats.BinarySubplans++
			stats.BinaryIntermediate += at.BinaryStats().TotalIntermediate
			info := at.IndexInfo()
			stats.TableIndexes += info.Indexes
			stats.TableIndexBytes += info.ApproxBytes
		case *wcoj.TableAtom:
			info := at.IndexInfo()
			stats.TableIndexes += info.Indexes
			stats.TableIndexBytes += info.ApproxBytes
		case *structix.RegionADAtom:
			six[at.Index()] = true
		}
	}
	for ix := range six {
		info := ix.Info()
		stats.StructIndexes += info.TagRuns + info.Edges + info.EdgeProjections + info.NestingDepths
		stats.StructIndexBytes += info.ApproxBytes
	}
}

// Prepare freezes an execution plan for q under opts and returns the
// frozen options: the attribute priority is resolved once into a copy of
// its own (invalid explicit orders surface here, not at execution, and a
// caller who later changes the slice it passed changes nothing), and the
// executor atom set for the chosen configuration is resolved into the
// query's cache so the first Execute pays no plan or atom work. The
// returned options are safe to reuse — by value — for any number of
// concurrent XJoin/XJoinStream calls over q; index builds stay lazy and
// are shared through the query's (or its catalog's) structures.
//
// A pre-cancelled Options.Context fails fast with an error matching
// ErrCancelled. The hybrid planner builds under buildControl, so a context
// that ends while one of its builds runs abandons it and fails the same
// way. The budget does not admit these builds: outside a run nothing
// degrades a refusal (degradeOptions), and the run itself still admits its
// own builds.
func Prepare(q *Query, opts Options) (Options, error) {
	if ctx := opts.Context; ctx != nil {
		if err := ctx.Err(); err != nil {
			return opts, Cancelled(err)
		}
	}
	order, err := q.planOrder(opts)
	if err != nil {
		return opts, err
	}
	opts.Order = slices.Clone(order)
	q.atoms(opts.AD)
	if opts.Plan != PlanWCOJ {
		// Resolve the decomposition now (planning errors surface here);
		// subplan materialization stays lazy and is cached by the first
		// execution.
		ctl := q.buildControl(opts)
		ctl.Admit = nil
		if _, err := q.hybridPlan(opts.AD, opts.Plan, ctl); err != nil {
			return opts, buildCancelled(opts.Context, err)
		}
	}
	return opts, nil
}

// planOrder resolves the attribute priority a run under opts expands in:
// the explicit Options.Order, checked against the query's attributes, else
// DefaultOrder.
func (q *Query) planOrder(opts Options) ([]string, error) {
	if opts.Order == nil {
		return DefaultOrder(q), nil
	}
	return opts.Order, checkOrder(q, opts.Order)
}

// DefaultOrder is the attribute priority PA a run expands in when the
// caller gives none: the relational tables' attributes first (schema
// order), then the remaining twig tags in preorder — the first-appearance
// order of Attrs. Relational atoms are usually the most selective. It reads
// no index, so planning it builds nothing.
func DefaultOrder(q *Query) []string { return q.Attrs() }

func checkOrder(q *Query, order []string) error {
	want := q.Attrs()
	if len(order) != len(want) {
		return fmt.Errorf("core: attribute order has %d attributes, query has %d", len(order), len(want))
	}
	seen := make(map[string]bool, len(order))
	for _, a := range order {
		seen[a] = true
	}
	for _, a := range want {
		if !seen[a] {
			return fmt.Errorf("core: attribute order is missing %q", a)
		}
	}
	return nil
}

// SortResultTuples orders a result's tuples lexicographically in place, for
// deterministic output and comparisons.
func SortResultTuples(r *Result) {
	sort.Slice(r.Tuples, func(i, j int) bool {
		a, b := r.Tuples[i], r.Tuples[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

// EqualResults reports whether two results hold the same tuple set over the
// same attributes (order-insensitive on both attributes and tuples).
func EqualResults(a, b *Result) bool {
	if len(a.Tuples) != len(b.Tuples) {
		return false
	}
	attrs := append([]string(nil), a.Attrs...)
	sort.Strings(attrs)
	pa, err := project(a.Attrs, attrs)
	if err != nil {
		return false
	}
	pb, err := project(b.Attrs, attrs)
	if err != nil {
		return false
	}
	key := func(t relational.Tuple, cols []int) string {
		buf := make([]byte, 0, len(cols)*8)
		for _, c := range cols {
			v := uint64(t[c])
			buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
				byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
		}
		return string(buf)
	}
	set := make(map[string]int, len(a.Tuples))
	for _, t := range a.Tuples {
		set[key(t, pa)]++
	}
	for _, t := range b.Tuples {
		k := key(t, pb)
		if set[k] == 0 {
			return false
		}
		set[k]--
	}
	return true
}
