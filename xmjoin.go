// Package xmjoin is a worst-case optimal join engine for multi-model
// queries spanning relational tables and XML documents, reproducing
// "Worst Case Optimal Joins on Relational and XML data" (Chen, SIGMOD'18).
//
// A query names some relational tables and an XML twig pattern; attributes
// with equal names join across the models (a twig node's tag doubles as an
// attribute whose values are the matched elements' text). The engine offers
// two evaluation strategies:
//
//   - XJoin (the paper's Algorithm 1): a single attribute-at-a-time
//     worst-case optimal join over both models at once, in which the twig's
//     parent-child edges participate as virtual relations backed by XML
//     indexes. Every intermediate stage is bounded by the AGM bound of the
//     whole multi-model query. The attribute priority PA is the
//     algorithm's input: Query.WithOrder sets it, and otherwise the
//     tables' attributes expand first, then the twig's tags in preorder.
//
//   - Baseline: the conventional combination — evaluate the relational part
//     Q1 (hash joins) and the XML part Q2 (a holistic TwigStack-family
//     matcher) separately, then join the results. Q2 alone can be
//     polynomially larger than the combined query's worst case, which is
//     the gap the paper's Figure 3 demonstrates.
//
// A cost-based hybrid planner bridges the two: Query.WithPlan(PlanHybrid)
// — "... VIA hybrid" in mmql — decomposes the query with GYO ear removal,
// materializes acyclic fringe clusters through binary hash-join chains
// when their estimated intermediates stay within budget, and keeps the
// cyclic core (where binary plans lose their worst-case guarantee) on the
// generic join. Query.Explain and mmql's EXPLAIN render the plan tree
// with each subplan's strategy, cost estimate and worst-case bound:
//
//	q, _ := db.Query("", "R", "S", "T", "C1")
//	text, _ := q.WithPlan(xmjoin.PlanHybrid).Explain()  // or: EXPLAIN SELECT * FROM R, S, T, C1 VIA hybrid
//	res, _ := q.ExecXJoin()                             // hybrid execution; Stats().Plan == "hybrid"
//
// Size bounds (Equation 1) are available exactly: the twig is transformed
// into root-leaf path relations (Figure 2) and the fractional edge cover /
// vertex packing LPs are solved in exact rational arithmetic.
//
// Quickstart:
//
//	db := xmjoin.NewDatabase()
//	_ = db.LoadXMLString(invoicesXML)
//	_ = db.AddTableRows("R", []string{"orderID", "userID"}, rows)
//	q, _ := db.Query("/invoices/orderLine[orderID][ISBN]/price", "R")
//	res, _ := q.ExecXJoin()
//	out, _ := res.Project("userID", "ISBN", "price")
//
// For serving workloads, prepare once and execute many times: a prepared
// query freezes the plan (attribute order, bounds, atom set) and every
// execution borrows the lazily built indexes from the database's shared
// catalog, so repeated and concurrent executions perform zero index-build
// work after the first:
//
//	p, _ := db.Prepare("/invoices/orderLine[orderID][ISBN]/price", "R")
//	res, _ := p.Execute()                               // cold: builds what it needs
//	res, _ = p.Execute()                                // warm: pure join work
//	res, _ = p.Execute(xmjoin.ExecOptions{Limit: 10})   // per-call knobs
//	db.Catalog().SetBudget(64 << 20)                    // cap resident index bytes (LRU)
//
// Every run reports Stats: the paper's per-stage intermediate sizes
// against their worst-case bounds, catalog hit/miss counters, and the
// executor's own counters — LeafBatches counts the value vectors the
// batched leaf loop delivered (identical for serial and parallel runs
// over the same plan), while MorselSplits and MorselSteals expose how
// the morsel scheduler responded to skew under WithParallelism (both
// zero serially).
//
// Execution is context-first: every run can be cancelled or deadlined,
// and the Rows cursor pulls answers one at a time — the shape of a
// serving handler, where a worst-case optimal join (whose baseline can be
// polynomially larger, i.e. arbitrarily slower) must stop the moment the
// client gives up. Cancellation stops every executor — serial or
// morsel-parallel — within one morsel's work; the error matches both
// ErrCancelled and the context's own error, and partial statistics come
// back with Stats.Cancelled set:
//
//	func handle(w http.ResponseWriter, req *http.Request) {
//		ctx, cancel := context.WithTimeout(req.Context(), 100*time.Millisecond)
//		defer cancel()
//		rows, err := p.Rows(ctx)           // runs the streaming join
//		if err != nil { ... }
//		defer rows.Close()                 // always releases the executor
//		for rows.Next() {
//			emit(w, rows.Row())            // backpressure: join paces the client
//		}
//		if err := rows.Err(); errors.Is(err, xmjoin.ErrCancelled) {
//			// deadline hit: rows emitted so far are valid answers
//		}
//	}
//
// or, with Go 1.23 range-over-func:
//
//	for row, err := range p.All(ctx) { ... }
//
// # Observability
//
// Every execution reports into three process-level surfaces, all
// dependency-free:
//
//   - Metrics: each run folds its Stats into a process-lifetime registry
//     (counters for per-run deltas like output tuples and leaf batches,
//     gauges for snapshots like catalog residency, a histogram of query
//     wall times). WriteMetrics renders the default registry in
//     Prometheus text exposition format; cmd/xjoin and cmd/xmsh serve it
//     (plus pprof and expvar) with -metrics addr. Databases can be told
//     apart with UseMetricsRegistry.
//
//   - Tracing: Query.WithTrace (or ExecOptions.Trace, or mmql's EXPLAIN
//     ANALYZE / the shell's .analyze) attaches a per-query *Trace whose
//     timed spans cover plan selection, every lazy index build the run
//     admitted, and execution with per-level intersection/seek/batch
//     counters. With no trace attached the engine pays one pointer test
//     per phase — never per tuple.
//
//   - Slow queries: each Database keeps a bounded ring of runs slower
//     than a threshold (Database.SlowLog; .slowlog in the shell).
//
// # Failure semantics
//
// The engine separates three failure classes, each a typed sentinel, each
// delivered alongside whatever partial work completed:
//
//   - Cancellation (ErrCancelled): the caller's context ended. Every
//     executor — serial, morsel-parallel, the Rows goroutine, and the
//     lazy index builds themselves (polled every ~1024 nodes/rows) —
//     stops within a bounded amount of work. Partial results carry
//     Stats.Cancelled; an abandoned index build is discarded without
//     corrupting its shared slot and rebuilds cleanly on the next run.
//
//   - Internal errors (ErrInternal): a panic in an engine-owned goroutine
//     or index build. The panic is recovered at the executor boundary:
//     sibling workers are cancelled, pooled iterators released, no
//     goroutine leaks, and — because build slots are retryable, never
//     poisoned — the database and its shared catalog keep serving
//     subsequent queries. Partial results carry Stats.Internal; the
//     wrapped error exposes the panic value and captured stack.
//
//   - Budget pressure (ErrBudgetExceeded): a lazily built structural
//     index alone would exceed the catalog's byte budget. Rather than
//     evicting hot entries to admit it, the run transparently degrades to
//     the post-hoc configuration (A-D edges checked by final validation;
//     P-C edges stay pair tables, as in every mode) and records why in
//     Stats.Degraded — identical answers, different cost. The error
//     surfaces only when the configuration has no cheaper shape, or when
//     a streaming run already emitted rows it cannot recall.
//
// Queries, data errors and invalid plans return ordinary errors eagerly;
// the classes above are the runtime ones a serving loop should branch on.
//
// # Serving
//
// cmd/xmserve packages these pieces into a multi-tenant network query
// service (internal/server is the embeddable implementation). Each
// tenant is one Database: its own shared index catalog under its own
// byte budget, its own metrics registry (UseMetricsRegistry) mounted at
// /tenants/{name}/metrics, its own slow-query log and prepared-statement
// cache (mmql text → frozen plan, LRU), and its own concurrency
// admission control — a semaphore sized off how many morsel-parallel
// queries the machine sustains at once, returning 429 when the wait
// queue overflows.
//
// Request deadlines (an X-Deadline-Ms header, or the server default)
// flow through the context into the engine, where the morsel scheduler
// is deadline-aware: workers keep an EWMA estimate of per-morsel cost
// and stop dequeuing or stealing morsels once the remaining budget
// cannot cover one, so a deadlined request returns its partial answer
// promptly instead of coasting through work the client will never see.
// Stats.DeadlineStops counts the refused morsels (always zero without a
// deadline); the HTTP layer surfaces it per response next to
// "cancelled": true. cmd/xmload is the matching load-generator harness
// (latency percentiles per workload class, admission rejections, the
// cancelled-vs-full latency gap).
package xmjoin

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/relational"
	"repro/internal/twig"
	"repro/internal/xmldb"
)

// Typed sentinel errors. Assembly errors wrap these (with the offending
// name in the message), so callers branch with errors.Is instead of
// matching strings.
var (
	// ErrUnknownTable reports a query naming a table the database does
	// not hold.
	ErrUnknownTable = errors.New("xmjoin: unknown table")
	// ErrUnknownDocument reports a twig targeting a named document the
	// database does not hold.
	ErrUnknownDocument = errors.New("xmjoin: unknown document")
	// ErrNoDocument reports a twig query against a database whose default
	// document has not been loaded.
	ErrNoDocument = errors.New("xmjoin: no XML document loaded")
	// ErrCancelled reports a run abandoned because its context was
	// cancelled or its deadline expired. The errors the execution methods
	// return for cancelled runs match both this sentinel and the
	// context's own error (context.Canceled / context.DeadlineExceeded),
	// and travel alongside partial results with Stats.Cancelled set.
	ErrCancelled = core.ErrCancelled
	// ErrInternal reports a run aborted by an engine defect — a panic in
	// an executor goroutine or an index build — recovered at the executor
	// boundary. The process, the database and its catalog stay usable;
	// partial results travel alongside with Stats.Internal set, and the
	// wrapped *wcoj.PanicError carries the captured stack.
	ErrInternal = core.ErrInternal
	// ErrBudgetExceeded reports a lazily built index refused because its
	// estimated footprint alone exceeds the catalog's byte budget. Runs
	// that can degrade to a cheaper execution shape do so transparently
	// (Stats.Degraded records why); the error surfaces only when no
	// fallback exists.
	ErrBudgetExceeded = core.ErrBudgetExceeded
)

// Database holds XML documents (a default one plus any number of named
// ones) and relational tables over a shared value dictionary, ready to be
// queried jointly — the multi-model, multi-DB setting the paper motivates.
//
// Every database owns a process-lifetime index catalog: all queries
// assembled from it borrow their table atoms and per-document XML indexes
// from the catalog, so index cost is paid once across queries (not once
// per ExecXJoin call) and can be bounded with Catalog().SetBudget.
type Database struct {
	dict   *relational.Dict
	doc    *xmldb.Document
	docs   map[string]*xmldb.Document
	tables map[string]*relational.Table
	order  []string // table insertion order

	// catMu guards cat: Catalog/ResetCatalog and query assembly may run
	// from concurrent serving goroutines (loading data is still
	// single-threaded, like the rest of the Database's mutation surface).
	catMu sync.Mutex
	cat   *catalog.Catalog

	// obsMu guards the observability plumbing every execution reports
	// through: the target registry, its cached handles, and the
	// slow-query log (see metrics.go).
	obsMu sync.Mutex
	reg   *obs.Registry
	met   *dbMetrics
	slow  *obs.SlowLog
}

// NewDatabase returns an empty database with an unlimited-budget catalog.
func NewDatabase() *Database {
	return &Database{
		dict:   relational.NewDict(),
		docs:   make(map[string]*xmldb.Document),
		tables: make(map[string]*relational.Table),
		cat:    catalog.New(0),
		reg:    obs.Default,
		slow:   obs.NewSlowLog(defaultSlowThreshold, 128),
	}
}

// Dict exposes the shared value dictionary (mostly for decoding values in
// custom output paths).
func (db *Database) Dict() *relational.Dict { return db.dict }

// Catalog exposes the database's shared index catalog: budget control
// (SetBudget), and the hit/miss/eviction/resident-bytes counters that
// core.Stats snapshots after every run. Safe for concurrent use.
func (db *Database) Catalog() *catalog.Catalog {
	db.catMu.Lock()
	defer db.catMu.Unlock()
	return db.cat
}

// ResetCatalog replaces the catalog with a fresh one (keeping the
// configured budget), dropping every shared index structure. Queries and
// prepared queries assembled before the reset keep the old structures
// alive and correct; new queries start cold. Mostly useful for
// benchmarking cold-vs-warm behaviour and for serving processes that
// reloaded their data. Safe for concurrent use.
func (db *Database) ResetCatalog() {
	db.catMu.Lock()
	defer db.catMu.Unlock()
	db.cat = catalog.New(db.cat.Budget())
}

// Doc returns the loaded XML document, or nil.
func (db *Database) Doc() *xmldb.Document { return db.doc }

// LoadXML parses and stores the database's XML document. A database holds
// one document; loading again replaces it. The catalog keeps the replaced
// document's shared index (it is keyed by document identity, and only its
// built entries are evictable), so a serving process that reloads data
// should follow up with ResetCatalog.
func (db *Database) LoadXML(r io.Reader) error {
	doc, err := xmldb.Parse(r, db.dict)
	if err != nil {
		return err
	}
	db.doc = doc
	return nil
}

// LoadXMLString is LoadXML over a string.
func (db *Database) LoadXMLString(s string) error {
	return db.LoadXML(strings.NewReader(s))
}

// LoadXMLFile is LoadXML over a file path.
func (db *Database) LoadXMLFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return db.LoadXML(f)
}

// LoadXMLNamed parses and stores an additional named document; twigs
// address it via QueryOn. Loading an existing name replaces that document.
func (db *Database) LoadXMLNamed(name string, r io.Reader) error {
	if name == "" {
		return fmt.Errorf("xmjoin: named document needs a non-empty name")
	}
	doc, err := xmldb.Parse(r, db.dict)
	if err != nil {
		return err
	}
	db.docs[name] = doc
	return nil
}

// LoadXMLNamedString is LoadXMLNamed over a string.
func (db *Database) LoadXMLNamedString(name, s string) error {
	return db.LoadXMLNamed(name, strings.NewReader(s))
}

// DocNames lists the named documents, sorted.
func (db *Database) DocNames() []string {
	out := make([]string, 0, len(db.docs))
	for n := range db.docs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TwigOn addresses one twig at one document: the default document when Doc
// is empty, a named one otherwise.
type TwigOn struct {
	// Doc names the target document ("" = the default document).
	Doc string
	// Twig is the pattern in the XPath subset.
	Twig string
}

// QueryOn assembles a query whose twigs may target different documents —
// the paper's multiple-XML-DB setting. Values join across documents and
// tables through the shared dictionary.
func (db *Database) QueryOn(twigs []TwigOn, tableNames ...string) (*Query, error) {
	var inputs []core.TwigInput
	for _, t := range twigs {
		p, err := twig.Parse(t.Twig)
		if err != nil {
			return nil, err
		}
		doc := db.doc
		if t.Doc != "" {
			var ok bool
			doc, ok = db.docs[t.Doc]
			if !ok {
				return nil, fmt.Errorf("%w %q", ErrUnknownDocument, t.Doc)
			}
		}
		if doc == nil {
			return nil, fmt.Errorf("%w: twig %s targets the default document", ErrNoDocument, t.Twig)
		}
		inputs = append(inputs, core.TwigInput{Doc: doc, Pattern: p})
	}
	tables, err := db.resolveTables(tableNames)
	if err != nil {
		return nil, err
	}
	cq, err := core.NewQueryInputsCatalog(inputs, tables, db.Catalog())
	if err != nil {
		return nil, err
	}
	exprs := make([]string, len(twigs))
	for i, t := range twigs {
		exprs[i] = t.Twig
	}
	return &Query{db: db, q: cq, label: queryLabel(exprs, tableNames)}, nil
}

func (db *Database) resolveTables(names []string) ([]*relational.Table, error) {
	var tables []*relational.Table
	for _, n := range names {
		t, ok := db.tables[n]
		if !ok {
			return nil, fmt.Errorf("%w %q", ErrUnknownTable, n)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// AddTableCSV loads a relational table from CSV (header row = schema).
func (db *Database) AddTableCSV(name string, r io.Reader) error {
	t, err := relational.ReadCSV(r, name, db.dict)
	if err != nil {
		return err
	}
	return db.addTable(t)
}

// AddTableCSVFile is AddTableCSV over a file path.
func (db *Database) AddTableCSVFile(name, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return db.AddTableCSV(name, f)
}

// AddTableRows creates a table from string rows.
func (db *Database) AddTableRows(name string, attrs []string, rows [][]string) error {
	schema, err := relational.NewSchema(attrs...)
	if err != nil {
		return err
	}
	t := relational.NewTable(name, schema)
	tup := make(relational.Tuple, len(attrs))
	for i, row := range rows {
		if len(row) != len(attrs) {
			return fmt.Errorf("xmjoin: table %s row %d has %d fields, want %d", name, i, len(row), len(attrs))
		}
		for j, s := range row {
			tup[j] = db.dict.Intern(s)
		}
		if err := t.Append(tup); err != nil {
			return err
		}
	}
	return db.addTable(t)
}

func (db *Database) addTable(t *relational.Table) error {
	if _, dup := db.tables[t.Name()]; dup {
		return fmt.Errorf("xmjoin: table %q already exists", t.Name())
	}
	db.tables[t.Name()] = t
	db.order = append(db.order, t.Name())
	return nil
}

// Table returns a loaded table by name.
func (db *Database) Table(name string) (*relational.Table, bool) {
	t, ok := db.tables[name]
	return t, ok
}

// TableNames lists the loaded tables in insertion order.
func (db *Database) TableNames() []string { return append([]string(nil), db.order...) }

// Query assembles a multi-model query from a twig expression (empty string
// for a pure relational query) and table names (none for a pure XML query).
// The twig syntax is an XPath subset: /a/b child steps, //a descendant
// steps, [p] predicates (child), [.//p] descendant predicates, and
// tag="value" equality selections.
func (db *Database) Query(twigExpr string, tableNames ...string) (*Query, error) {
	var exprs []string
	if twigExpr != "" {
		exprs = []string{twigExpr}
	}
	return db.QueryMulti(exprs, tableNames...)
}

// QueryMulti assembles a query over any number of twig expressions —
// Algorithm 1 takes "XML twigs Sx" plural. A tag shared by several twigs
// (or by a twig and a table column) is a join point.
func (db *Database) QueryMulti(twigExprs []string, tableNames ...string) (*Query, error) {
	var patterns []*twig.Pattern
	for _, expr := range twigExprs {
		p, err := twig.Parse(expr)
		if err != nil {
			return nil, err
		}
		patterns = append(patterns, p)
	}
	if len(patterns) > 0 && db.doc == nil {
		return nil, fmt.Errorf("%w: twig query given", ErrNoDocument)
	}
	tables, err := db.resolveTables(tableNames)
	if err != nil {
		return nil, err
	}
	var inputs []core.TwigInput
	for _, p := range patterns {
		inputs = append(inputs, core.TwigInput{Doc: db.doc, Pattern: p})
	}
	cq, err := core.NewQueryInputsCatalog(inputs, tables, db.Catalog())
	if err != nil {
		return nil, err
	}
	return &Query{db: db, q: cq, label: queryLabel(twigExprs, tableNames)}, nil
}

// Query is a prepared multi-model join.
type Query struct {
	db    *Database
	q     *core.Query
	opts  core.Options
	label string
}

// queryLabel synthesizes the default observability label — the twig
// expressions and table names that assembled the query — used by the
// metrics registry's slow-query log unless WithLabel overrides it.
func queryLabel(twigExprs []string, tableNames []string) string {
	parts := append(append([]string(nil), twigExprs...), tableNames...)
	return strings.Join(parts, " ")
}

// Attrs returns the query's output attributes.
func (q *Query) Attrs() []string { return q.q.Attrs() }

// SharedAttrs returns the attributes joining the two models.
func (q *Query) SharedAttrs() []string { return q.q.SharedAttrs() }

// WithOrder fixes the attribute expansion priority PA explicitly; it must
// cover exactly the query's attributes. Without it a query expands in
// core.DefaultOrder: the tables' attributes, then the twig's tags.
func (q *Query) WithOrder(attrs ...string) *Query {
	q.opts.Order = attrs
	return q
}

// ADMode selects how ancestor-descendant twig edges participate in the
// join; see the core documentation. The default (ADLazy) filters
// intermediate results through the lazy region-interval structural index —
// the paper's future-work extension at no index-build cost.
type ADMode = core.ADMode

// Re-exported A-D handling modes.
const (
	ADLazy         = core.ADLazy
	ADPostHoc      = core.ADPostHoc
	ADMaterialized = core.ADMaterialized
)

// WithAD selects the A-D edge handling: ADLazy (default — lazy region
// atoms filter during the join), ADPostHoc (the paper's plain Algorithm 1,
// A-D edges checked only by the final validation) or ADMaterialized (the
// quadratic value-level A-D index; the oracle the lazy path is verified
// against). Results are identical across modes; cost is not.
func (q *Query) WithAD(m ADMode) *Query {
	q.opts.AD = m
	return q
}

// PlanMode selects the hybrid planner's strategy assignment; see the core
// documentation. The default (PlanWCOJ) runs the paper's generic join over
// every atom. PlanHybrid decomposes the query with GYO ear removal and
// cost-checks each acyclic fringe cluster: clusters whose estimated
// intermediates stay within budget are materialized by binary hash-join
// chains and feed the generic join — which keeps the cyclic core and the
// unchanged attribute order — as single pre-joined atoms. PlanBinary
// forces hash joins over every connected component (the classic plan, for
// comparisons). Results are identical across modes; cost is not.
type PlanMode = core.PlanMode

// Re-exported plan modes.
const (
	PlanWCOJ   = core.PlanWCOJ
	PlanHybrid = core.PlanHybrid
	PlanBinary = core.PlanBinary
)

// WithPlan selects the plan mode: PlanWCOJ (default — pure generic join),
// PlanHybrid (hash joins for the acyclic fringe, generic join for the
// cyclic core) or PlanBinary (forced hash joins, the baseline the paper
// argues against on cyclic queries). EXPLAIN renders the resulting plan
// tree with per-subplan strategies and bounds; Stats.Plan,
// Stats.BinarySubplans and Stats.BinaryIntermediate report what ran.
func (q *Query) WithPlan(m PlanMode) *Query {
	q.opts.Plan = m
	return q
}

// WithParallelism evaluates XJoin morsel-driven over n worker goroutines
// (negative = GOMAXPROCS; 0 or 1 = serial): workers stream the depth-first
// join over partitions of the first attribute's range, so memory stays at
// O(workers × depth) beyond the result itself. An unlimited parallel run
// returns the same answers and statistics as a serial one.
func (q *Query) WithParallelism(n int) *Query {
	q.opts.Parallelism = n
	return q
}

// WithTrace attaches a trace to every subsequent execution of this query:
// plan/order selection, each lazy index build the run admits, and the
// execution itself become timed spans with per-level join counters (see
// Trace and mmql's EXPLAIN ANALYZE). nil detaches. Tracing changes
// per-phase bookkeeping only, never per-tuple work; a detached query
// pays one pointer test per phase.
func (q *Query) WithTrace(tr *Trace) *Query {
	q.opts.Trace = tr
	return q
}

// WithLabel replaces the query's observability label — the string the
// slow-query log and traces identify it by (the default is the twig
// expressions and table names it was assembled from).
func (q *Query) WithLabel(label string) *Query {
	q.label = label
	return q
}

// WithLimit stops evaluation after n validated answers (0 = no limit).
// Every executor terminates early, including the parallel one: its workers
// share an atomic emission budget, so a limited parallel run stops without
// enumerating the remaining answers (the n answers returned are then a
// scheduling-dependent subset of the full result).
func (q *Query) WithLimit(n int) *Query {
	q.opts.Limit = n
	return q
}

// Exists reports whether the query has at least one answer, stopping the
// streaming join at the first validated tuple — across all workers, when
// combined with WithParallelism.
func (q *Query) Exists() (bool, error) { return q.ExistsCtx(nil) }

// ExistsCtx is Exists bounded by ctx. A true answer found before the
// context ended is definitive and returned with a nil error; a run
// cancelled before any answer returns false with an ErrCancelled-matching
// error, since "no answer so far" proves nothing.
func (q *Query) ExistsCtx(ctx context.Context) (bool, error) {
	start := time.Now()
	found := false
	st, err := core.XJoinStream(q.q, q.execOptions(ctx), func(relational.Tuple) bool {
		found = true
		return false
	})
	q.db.observeRun(q.label, start, st, err)
	if found {
		return true, nil
	}
	return false, err
}

// execOptions layers a per-call context over the query's chained With*
// options — the same single core.Options-building path PreparedQuery's
// ExecOptions merge through (see buildExecOptions).
func (q *Query) execOptions(ctx context.Context) core.Options {
	return buildExecOptions(q.opts, ctx, nil)
}

// ExecXJoin evaluates the query with the worst-case optimal multi-model
// join (Algorithm 1).
func (q *Query) ExecXJoin() (*Result, error) { return q.ExecXJoinCtx(nil) }

// ExecXJoinCtx is ExecXJoin bounded by ctx: when the context is cancelled
// or its deadline expires, every executor — serial or morsel-parallel —
// stops within one morsel's work, and the call returns the partial result
// found so far (Stats().Cancelled set) together with a non-nil error
// matching both ErrCancelled and the context's error. Callers that only
// care about complete answers can keep treating any non-nil error as
// fatal; callers serving best-effort responses use the partial Result.
func (q *Query) ExecXJoinCtx(ctx context.Context) (*Result, error) {
	start := time.Now()
	r, err := core.XJoin(q.q, q.execOptions(ctx))
	return q.db.observed(q.label, start, r, err)
}

// observed is the tail every materializing execution shares: fold the run
// into the registry and slow-query log, then wrap the (possibly partial,
// possibly absent) core result.
func (db *Database) observed(label string, start time.Time, r *core.Result, err error) (*Result, error) {
	if r == nil {
		db.observeRun(label, start, nil, err)
		return nil, err
	}
	db.observeRun(label, start, &r.Stats, err)
	return &Result{db: db, r: r}, err
}

// ExecBaseline evaluates the query with the per-model baseline
// (Q1 hash joins, Q2 holistic twig match, then a combining join).
func (q *Query) ExecBaseline() (*Result, error) { return q.ExecBaselineCtx(nil) }

// ExecBaselineCtx is ExecBaseline bounded by ctx. The baseline is a
// materializing pipeline, so cancellation is only checked between plan
// steps (the whole relational Q1 hash-join chain, each twig match, each
// combining join) — its latency is bounded by one materialized step,
// which can be polynomially larger than the whole query's worst case.
// That coarse bound is itself an argument for XJoin in serving paths.
func (q *Query) ExecBaselineCtx(ctx context.Context) (*Result, error) {
	start := time.Now()
	r, err := core.Baseline(q.q, q.execOptions(ctx))
	return q.db.observed(q.label, start, r, err)
}

// Bounds computes the query's worst-case size bounds (Equation 1) on the
// transformed hypergraph of Figure 2.
func (q *Query) Bounds() (*Bounds, error) {
	b, err := core.ComputeBounds(q.q)
	if err != nil {
		return nil, err
	}
	return &Bounds{b: b}, nil
}

// PlanOrder returns the attribute expansion order the query will evaluate
// with — the explicit WithOrder if set, otherwise the default order.
// This is the column order of the rows ExecXJoinStream emits.
func (q *Query) PlanOrder() []string {
	if q.opts.Order != nil {
		return append([]string(nil), q.opts.Order...)
	}
	return core.DefaultOrder(q.q)
}

// StageBounds returns the per-stage worst-case bound for the expansion
// order the query would use (Lemma 3.5).
func (q *Query) StageBounds() ([]float64, error) {
	order := q.opts.Order
	if order == nil {
		order = core.DefaultOrder(q.q)
	}
	return core.StageBounds(q.q, order)
}

// Explain renders the XJoin plan: atoms and cardinalities, the attribute
// priority, per-stage bounds, and the query's AGM exponents.
func (q *Query) Explain() (string, error) {
	return core.Explain(q.q, q.opts)
}

// ExecXJoinStream evaluates the query with the streaming worst-case optimal
// join, invoking emit for each validated answer (decoded to strings, in the
// plan's attribute order) without materializing the result. Returning false
// from emit stops the join. It returns the run's statistics.
func (q *Query) ExecXJoinStream(emit func(row []string) bool) (Stats, error) {
	return q.ExecXJoinStreamCtx(nil, emit)
}

// ExecXJoinStreamCtx is ExecXJoinStream bounded by ctx; a cancelled run
// returns the statistics of the completed portion (Cancelled set) with an
// error matching ErrCancelled. emit is never called after the executor
// observed the cancellation, so every row emitted is a valid answer.
func (q *Query) ExecXJoinStreamCtx(ctx context.Context, emit func(row []string) bool) (Stats, error) {
	return streamDecoded(q.db, q.label, q.q, q.execOptions(ctx), emit)
}
