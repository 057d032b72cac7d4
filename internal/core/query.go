package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/catalog"
	"repro/internal/relational"
	"repro/internal/twig"
	"repro/internal/wcoj"
	"repro/internal/xmldb"
	"repro/internal/xmldb/structix"
)

// TwigInput pairs one twig pattern with the XML document it matches
// against — the paper's multi-model setting spans multiple XML DBs, so
// each twig of a query may target a different document. All documents of
// one query must share one value dictionary (the Database type enforces
// this) so values are joinable across them.
type TwigInput struct {
	Doc     *xmldb.Document
	Pattern *twig.Pattern
}

// twigPart is a resolved twig input with its document's lazy index, shared
// by all twigs over the same document and held by the query, so repeated
// XJoin calls reuse whatever the index has already built.
type twigPart struct {
	pattern *twig.Pattern
	ix      *structix.Index
}

// Query is one multi-model join: any number of relational tables plus any
// number of XML twigs, each over a document — Algorithm 1's inputs are
// "XML twigs Sx, relational tables Sr". Attributes with equal names join,
// within and across models; twig tags double as attribute names (values of
// the matched elements), so a tag shared by two twigs is a join point.
//
// A query built with NewQueryInputsCatalog borrows its index structures —
// table atoms and per-document XML indexes — from a shared catalog, so
// repeated and concurrent queries over the same data reuse one set of
// lazily built indexes; without a catalog every structure is private to
// the query (the standalone fallback). Either way the resolved
// atom set for each execution configuration is cached on the query, so
// repeated XJoin calls (and PreparedQuery executions) perform no per-run
// atom or index construction. A Query is safe for concurrent execution.
type Query struct {
	Tables []*relational.Table
	twigs  []twigPart

	// cat is the shared index catalog, nil for standalone queries.
	cat *catalog.Catalog
	// tableAtoms are the executor atoms for Tables, borrowed from the
	// catalog or private to the query; aligned with Tables.
	tableAtoms []*wcoj.TableAtom

	// amu guards atomCache: the resolved executor atom set per A-D mode,
	// built once and reused by every run.
	amu       sync.Mutex
	atomCache map[ADMode][]wcoj.Atom

	// hmu guards the hybrid planner's caches: the decomposition per
	// (A-D mode, plan mode), and the executor atom list with the
	// binary subplans materialized. Both are lazily initialized — queries
	// that never leave PlanWCOJ pay nothing.
	hmu             sync.Mutex
	hybridPlanCache map[hybridKey]*HybridPlan
	hybridAtomCache map[hybridKey][]wcoj.Atom
}

// NewQuery assembles a single-twig (or, with a nil pattern, pure
// relational) query; see NewQueryInputs for the general form.
func NewQuery(doc *xmldb.Document, pattern *twig.Pattern, tables []*relational.Table) (*Query, error) {
	var in []TwigInput
	if pattern != nil {
		in = []TwigInput{{Doc: doc, Pattern: pattern}}
	}
	return NewQueryInputs(in, tables)
}

// NewQueryMulti assembles a query whose twigs all match one document.
func NewQueryMulti(doc *xmldb.Document, patterns []*twig.Pattern, tables []*relational.Table) (*Query, error) {
	in := make([]TwigInput, len(patterns))
	for i, p := range patterns {
		in[i] = TwigInput{Doc: doc, Pattern: p}
	}
	return NewQueryInputs(in, tables)
}

// NewQueryInputs validates and assembles a standalone query (private index
// structures); see NewQueryInputsCatalog for the shared-catalog form.
func NewQueryInputs(twigs []TwigInput, tables []*relational.Table) (*Query, error) {
	return NewQueryInputsCatalog(twigs, tables, nil)
}

// NewQueryInputsCatalog validates and assembles a query over any number of
// (document, twig) pairs and tables. Every twig needs its document; a pure
// relational query may pass no twigs. Every table must have a unique name.
// Tags are unique within one twig but may repeat across twigs (they then
// join by value).
//
// With a non-nil cat the query borrows every index structure from it:
// table atoms and per-document XML indexes are shared process-wide and
// subject to the catalog's byte budget. With nil cat the query builds
// private structures, reused across its own executions only. Either way
// assembling a query builds no index: every one is built lazily by the
// first run that needs it.
func NewQueryInputsCatalog(twigs []TwigInput, tables []*relational.Table, cat *catalog.Catalog) (*Query, error) {
	if len(twigs) == 0 && len(tables) == 0 {
		return nil, fmt.Errorf("core: query with no tables and no twig")
	}
	names := make(map[string]bool, len(tables))
	for _, t := range tables {
		if names[t.Name()] {
			return nil, fmt.Errorf("core: duplicate table name %q", t.Name())
		}
		names[t.Name()] = true
	}
	q := &Query{Tables: tables, cat: cat, atomCache: make(map[ADMode][]wcoj.Atom)}
	for _, t := range tables {
		if cat != nil {
			q.tableAtoms = append(q.tableAtoms, cat.TableAtom(t))
		} else {
			q.tableAtoms = append(q.tableAtoms, wcoj.NewTableAtom(t))
		}
	}
	ixs := make(map[*xmldb.Document]*structix.Index)
	for i, in := range twigs {
		if in.Pattern == nil {
			return nil, fmt.Errorf("core: twig input %d has no pattern", i)
		}
		if in.Doc == nil {
			return nil, fmt.Errorf("core: twig %s given without an XML document", in.Pattern)
		}
		ix, ok := ixs[in.Doc]
		if !ok {
			if cat != nil {
				ix = cat.StructIndex(in.Doc)
			} else {
				ix = structix.New(in.Doc)
			}
			ixs[in.Doc] = ix
		}
		q.twigs = append(q.twigs, twigPart{pattern: in.Pattern, ix: ix})
	}
	return q, nil
}

// atoms returns (building and caching on first use) the executor atom set
// for one resolved A-D mode. The cache makes repeated executions — and
// every PreparedQuery.Execute — free of atom construction; the atoms
// themselves are safe for concurrent executors.
func (q *Query) atoms(ad ADMode) []wcoj.Atom {
	q.amu.Lock()
	defer q.amu.Unlock()
	if as, ok := q.atomCache[ad]; ok {
		return as
	}
	as := buildAtoms(q, ad)
	q.atomCache[ad] = as
	return as
}

// addCatalogStats snapshots the shared catalog's cumulative counters into
// the run statistics (zero values for standalone queries). The counters
// are process-wide and monotone — "this run built nothing" reads as
// "CatalogMisses unchanged since the previous run".
func (q *Query) addCatalogStats(s *Stats) {
	if q.cat == nil {
		return
	}
	cs := q.cat.Stats()
	s.CatalogHits = cs.Hits
	s.CatalogMisses = cs.Misses
	s.CatalogEvictions = cs.Evictions
	s.CatalogResidentBytes = cs.ResidentBytes
	s.CatalogEntries = cs.Entries
}

// hasADEdge reports whether any twig has a cut (descendant-axis) edge.
func (q *Query) hasADEdge() bool {
	for _, tw := range q.twigs {
		for _, n := range tw.pattern.Nodes() {
			if n.Parent != nil && n.Axis == twig.Descendant {
				return true
			}
		}
	}
	return false
}

// adModeLabel reports the A-D handling for the statistics —
// empty when the query has no cut A-D edge, so mode noise never appears on
// purely P-C queries.
func (q *Query) adModeLabel(opts Options) string {
	if !q.hasADEdge() {
		return ""
	}
	return opts.AD.String()
}

// Pattern returns the query's single twig, or nil (pure relational and
// multi-twig queries).
func (q *Query) Pattern() *twig.Pattern {
	if len(q.twigs) == 1 {
		return q.twigs[0].pattern
	}
	return nil
}

// Attrs returns the query's output attributes: table attributes in schema
// order, then twig tags in preorder, each listed once.
func (q *Query) Attrs() []string {
	n := 0
	for _, t := range q.Tables {
		n += t.Schema().Len()
	}
	for _, tw := range q.twigs {
		n += tw.pattern.Len()
	}
	// Every run re-checks its order against this list, so it is built in
	// one allocation: attribute counts are small enough to dedup by scan.
	out := make([]string, 0, n)
	add := func(a string) {
		if !slices.Contains(out, a) {
			out = append(out, a)
		}
	}
	for _, t := range q.Tables {
		for _, a := range t.Schema().Attrs() {
			add(a)
		}
	}
	for _, tw := range q.twigs {
		for _, nd := range tw.pattern.Nodes() {
			add(nd.Tag)
		}
	}
	return out
}

// SharedAttrs returns the attributes appearing in both a table and the
// twig — the cross-model join points — sorted.
func (q *Query) SharedAttrs() []string {
	if len(q.twigs) == 0 {
		return nil
	}
	inTwig := make(map[string]bool)
	for _, tw := range q.twigs {
		for _, a := range tw.pattern.Attrs() {
			inTwig[a] = true
		}
	}
	seen := make(map[string]bool)
	var out []string
	for _, t := range q.Tables {
		for _, a := range t.Schema().Attrs() {
			if inTwig[a] && !seen[a] {
				seen[a] = true
				out = append(out, a)
			}
		}
	}
	sort.Strings(out)
	return out
}

// Result is a materialized multi-model join answer.
type Result struct {
	// Attrs names the tuple positions.
	Attrs []string
	// Tuples holds the answers with set semantics.
	Tuples []relational.Tuple
	// Stats describes the run that produced the result.
	Stats Stats
}

// Stats quantifies a join run; the Figure 3 experiment compares these
// between XJoin and the baseline.
type Stats struct {
	// Algorithm is "xjoin", "xjoin-stream", "xjoin-hybrid", "xjoin-binary"
	// or "baseline"; ADMode names the A-D mode.
	Algorithm string
	// Order is the attribute expansion priority PA used (XJoin only).
	Order []string
	// StageSizes are the materialized sizes after each expansion stage
	// (XJoin) or each plan step (baseline).
	StageSizes []int
	// PeakIntermediate is the largest materialized collection at any point.
	PeakIntermediate int
	// TotalIntermediate sums all materialized stage sizes.
	TotalIntermediate int
	// Output is the final answer count.
	Output int
	// ValidationRemoved counts tuples discarded by the final structural
	// validation (XJoin) or never formed (baseline: always 0).
	ValidationRemoved int
	// Cancelled marks a run abandoned because its Options.Context ended
	// (cancellation or deadline): the other fields then describe the
	// completed portion only — partial per-worker statistics still merge —
	// and the run's error matches ErrCancelled. Always false for runs
	// that finished, including ones stopped early by Limit or an emit
	// callback.
	Cancelled bool
	// Internal marks a run aborted by a recovered engine panic: the other
	// fields describe the completed portion and the run's error matches
	// ErrInternal (wrapping the *wcoj.PanicError with the captured stack).
	// The process, the query and the shared catalog stay usable.
	Internal bool
	// Degraded, when non-empty, records why this run fell back from its
	// requested lazy configuration to the post-hoc shape: a lazily built
	// structural index alone exceeded the catalog's byte budget (the text
	// is the admission error). The run's results are identical to the
	// requested configuration's — only the execution strategy changed —
	// and ADMode reports the mode actually run ("posthoc").
	Degraded string
	// Plan records the executor strategy mix when the run used a
	// non-default plan mode: "hybrid" (GYO core on the generic join,
	// cost-accepted acyclic fringe on binary hash joins) or "binary"
	// (every component forced through hash-join chains). Empty for pure
	// generic-join runs, so plan noise never appears on ordinary output.
	Plan string
	// BinarySubplans counts the materialized binary subplans that fed the
	// run's top-level generic join (hybrid/binary plan modes; 0 otherwise).
	BinarySubplans int
	// BinaryIntermediate sums the tuples the binary subplans materialized
	// across their chain steps — the conventional-side counterpart of
	// TotalIntermediate, what the hybrid plan pays up front to make the
	// acyclic fringe cheap.
	BinaryIntermediate int
	// Q1Size and Q2Size are the baseline's per-model result sizes.
	Q1Size, Q2Size int
	// LeafBatches counts the key vectors the batched leaf-level loop
	// delivered (XJoin only). Every leaf value arrives in exactly one
	// batch, so completed runs report the same count regardless of
	// executor or worker count.
	LeafBatches int
	// MorselSplits and MorselSteals describe the parallel scheduler's
	// response to skew: sub-morsels re-queued by splitting a running
	// task's remaining work, and tasks claimed from another worker's
	// deque. Both are zero for serial runs and scheduling-dependent
	// otherwise — they say nothing about the result, only about how the
	// work moved between workers.
	MorselSplits int
	MorselSteals int
	// DeadlineStops counts morsels the parallel scheduler refused to
	// start because the context deadline's remaining budget could not
	// cover one more (estimated from a running per-morsel EWMA of task
	// wall time). Nonzero exactly when the deadline gate pre-empted the
	// run at a morsel boundary — such runs also report Cancelled and
	// return their partial answer; 0 for serial runs, runs without a
	// deadline, and runs that beat their deadline.
	DeadlineStops int
	// TableIndexes and TableIndexBytes report the sorted-column indexes
	// the run's table atoms held after execution: shape count and
	// approximate heap bytes. Table atoms build these lazily per
	// (target, bound-set) shape and cache them for the atom's lifetime,
	// so long-lived serving processes should watch these counters (the
	// catalog budget is the control).
	TableIndexes    int
	TableIndexBytes int64
	// ADMode records how cut A-D twig edges participated in the join:
	// "lazy" (structix region atoms, the default), "materialized" (the
	// quadratic oracle ADAtom) or "posthoc" (validation only). Empty for
	// queries without A-D edges and for the baseline.
	ADMode string
	// StructIndexes and StructIndexBytes mirror TableIndexes for the
	// per-document indexes behind the run's lazy A-D atoms: the number of
	// structures they hold after the run (tag runs, P-C pair tables, A-D
	// projections, nesting depths) and their approximate heap bytes —
	// O(document), never a pair set. Both are zero for runs without a lazy
	// A-D atom (post-hoc, materialized, or no cut A-D edge).
	StructIndexes    int
	StructIndexBytes int64
	// CatalogHits..CatalogEntries snapshot the shared index catalog at the
	// end of the run, when the query borrows from one (all zero for
	// standalone queries). Hits/Misses/Evictions are cumulative
	// process-wide counters, not per-run deltas: a warm execution that
	// performed zero index-build work leaves CatalogMisses exactly where
	// the previous run's snapshot put it. ResidentBytes/Entries describe
	// the catalog's lazily built entries currently resident against its
	// byte budget.
	CatalogHits          int64
	CatalogMisses        int64
	CatalogEvictions     int64
	CatalogResidentBytes int64
	CatalogEntries       int
}

// project returns the positions of attrs within from, erroring on misses.
func project(from []string, attrs []string) ([]int, error) {
	pos := make(map[string]int, len(from))
	for i, a := range from {
		pos[a] = i
	}
	out := make([]int, len(attrs))
	for i, a := range attrs {
		p, ok := pos[a]
		if !ok {
			return nil, fmt.Errorf("core: attribute %q not in result", a)
		}
		out[i] = p
	}
	return out, nil
}

// Project reorders/projects the result onto attrs, deduplicating.
func (r *Result) Project(attrs []string) (*Result, error) {
	cols, err := project(r.Attrs, attrs)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(r.Tuples))
	out := &Result{Attrs: append([]string(nil), attrs...), Stats: r.Stats}
	var key []byte
	for _, t := range r.Tuples {
		nt := make(relational.Tuple, len(cols))
		key = key[:0]
		for i, c := range cols {
			nt[i] = t[c]
			v := uint64(t[c])
			key = append(key, byte(v), byte(v>>8), byte(v>>16), byte(v>>24), byte(v>>32))
		}
		if seen[string(key)] {
			continue
		}
		seen[string(key)] = true
		out.Tuples = append(out.Tuples, nt)
	}
	return out, nil
}

// Table materializes the result as a relational table named name.
func (r *Result) Table(name string) (*relational.Table, error) {
	schema, err := relational.NewSchema(r.Attrs...)
	if err != nil {
		return nil, err
	}
	t := relational.NewTable(name, schema)
	for _, tu := range r.Tuples {
		if err := t.Append(tu); err != nil {
			return nil, err
		}
	}
	return t, nil
}
