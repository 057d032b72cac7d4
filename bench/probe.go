package main

// engineProbe separates the layers under one opaque engine call by
// substitution: the same query re-run through each inner layer's exported
// entry point (core.XJoin → core.XJoinStream → wcoj.GenericJoinStream over
// an equivalent atom set → a replay of the Atom.Open calls that join made).
// Each re-run is recorded as a child span of the call it stands in for, so a
// layer's self time is its span minus its children.

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/relational"
	"repro/internal/twig"
	"repro/internal/wcoj"
	"repro/internal/xmldb"
	"repro/internal/xmldb/structix"
)

// openCall is one recorded Atom.Open: which atom (by index into the atom
// set), the target attribute, and the values bound for its other attributes.
type openCall struct {
	atom  int
	attr  string
	bound fixedBinding
}

type boundValue struct {
	attr string
	v    relational.Value
}

type fixedBinding []boundValue

func (b fixedBinding) Get(attr string) (relational.Value, bool) {
	for _, x := range b {
		if x.attr == attr {
			return x.v, true
		}
	}
	return 0, false
}

// recorder logs the Open calls a join makes on one atom.
type recorder struct {
	wcoj.Atom
	idx   int
	calls *[]openCall
}

func (r recorder) Open(attr string, b wcoj.Binding) (wcoj.AtomIterator, error) {
	c := openCall{atom: r.idx, attr: attr}
	for _, a := range r.Attrs() {
		if v, ok := b.Get(a); ok && a != attr {
			c.bound = append(c.bound, boundValue{a, v})
		}
	}
	*r.calls = append(*r.calls, c)
	return r.Atom.Open(attr, b)
}

// atomKind names the layer an executor atom belongs to.
func atomKind(a wcoj.Atom) string {
	switch a.(type) {
	case *wcoj.TableAtom:
		return "table"
	case *structix.RegionADAtom:
		return "ad"
	}
	return "xml" // core.TagAtom, core.EdgeAtom: xmldb value indexes
}

// defaultAtoms assembles the executor atom set core builds for a
// single-document query under default options (lazy A-D region atoms,
// edge-index P-C atoms), from the same exported constructors.
func defaultAtoms(cat *catalog.Catalog, doc *xmldb.Document, p *twig.Pattern, tables []*relational.Table) []wcoj.Atom {
	var atoms []wcoj.Atom
	for _, t := range tables {
		atoms = append(atoms, cat.TableAtom(t))
	}
	if p == nil {
		return atoms
	}
	ix, six := cat.Indexes(doc), cat.StructIndex(doc)
	for _, n := range p.Nodes() {
		atoms = append(atoms, core.NewTagAtom(ix, n.Tag, n.Parent == nil && p.Rooted(), n.ValueFilter))
		switch {
		case n.Parent == nil:
		case n.Axis == twig.Child:
			atoms = append(atoms, core.NewEdgeAtom(ix, n.Parent.Tag, n.Tag))
		case n.Axis == twig.Descendant:
			atoms = append(atoms, structix.NewRegionADAtom(six, n.Parent.Tag, n.Tag))
		}
	}
	return atoms
}

type engineProbe struct {
	doc     *xmldb.Document
	pattern *twig.Pattern
	tables  []*relational.Table
	load    func() error        // reloads the workload's document, nil if it has none
	tail    []*relational.Table // acyclic fringe for wcoj.hash_join, nil if none
	hybrid  bool                // also time the query under core.PlanHybrid

	q       *core.Query
	opts    core.Options // Parallelism as the workload runs it
	workers int          // 1 serial, 2 when the workload runs two morsel workers
	order   []string
	atoms   []wcoj.Atom
	rows    int // tuples the join emits before validation

	opens  map[string][]openCall // every Open of the recorded join, by atom kind
	shapes map[string][]openCall // the first Open of each (atom, attr, bound set)

	vals    map[string]float64 // explicit per-layer values
	samples samples            // explicit per-layer values reported as a median over ops
}

// samples collects per-op values of explicit per-layer metrics; a metric's
// value is their median. Safe for concurrent clients.
type samples struct {
	mu sync.Mutex
	m  map[string][]float64
}

func (s *samples) add(name string, v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = make(map[string][]float64)
	}
	s.m[name] = append(s.m[name], v)
}

// medians adds each metric's median to out.
func (s *samples) medians(out map[string]float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, v := range s.m {
		out[k] = median(sortedCopy(v))
	}
}

// step is one named call a substitution records as a span.
type step struct {
	name string
	fn   func() error
}

// runSteps records each step as a root span of op.
func runSteps(tr *tracer, op int, steps []step) error {
	for _, s := range steps {
		if _, err := tr.do(op, 0, s.name, s.fn); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return nil
}

func noTuple(relational.Tuple) bool { return true }

// newEngineProbe builds the substitution inputs for one query. cat is the
// catalog the workload's own query borrows from, or nil for a standalone
// query (the probe then keeps a private one).
func newEngineProbe(cat *catalog.Catalog, doc *xmldb.Document, p *twig.Pattern, tables []*relational.Table, opts core.Options) (*engineProbe, error) {
	if cat == nil {
		cat = catalog.New(0)
	}
	e := &engineProbe{doc: doc, pattern: p, tables: tables, opts: opts, workers: 1, hybrid: true,
		vals: make(map[string]float64)}
	if opts.Parallelism != 0 {
		e.workers = 2
	}
	var in []core.TwigInput
	if p != nil {
		in = []core.TwigInput{{Doc: doc, Pattern: p}}
	}
	var err error
	if e.q, err = core.NewQueryInputsCatalog(in, tables, cat); err != nil {
		return nil, err
	}
	res, err := core.XJoin(e.q, core.Options{})
	if err != nil {
		return nil, err
	}
	st := res.Stats
	e.order = st.Order
	e.rows = st.Output + st.ValidationRemoved
	e.vals["core.validation_removed"] = float64(st.ValidationRemoved)
	e.vals["core.peak_intermediate_rows"] = float64(st.PeakIntermediate)
	e.vals["core.total_intermediate_rows"] = float64(st.TotalIntermediate)
	bounds, err := core.StageBounds(e.q, e.order)
	if err != nil {
		return nil, err
	}
	for i, size := range st.StageSizes {
		if r := float64(size) / bounds[i]; r > e.vals["core.stage_bound_ratio_max"] {
			e.vals["core.stage_bound_ratio_max"] = r
		}
	}
	// The bounds are products of float roots; allow them their rounding.
	if r := e.vals["core.stage_bound_ratio_max"]; r > 1+1e-9 {
		return nil, fmt.Errorf("stage size exceeds its bound: ratio %.3f, sizes %v, bounds %v", r, st.StageSizes, bounds)
	}

	e.atoms = defaultAtoms(cat, doc, p, tables)
	var calls []openCall
	rec := make([]wcoj.Atom, len(e.atoms))
	for i, a := range e.atoms {
		rec[i] = recorder{Atom: a, idx: i, calls: &calls}
	}
	gj, err := wcoj.GenericJoinStream(rec, e.order, noTuple)
	if err != nil {
		return nil, err
	}
	if gj.Output != e.rows {
		return nil, fmt.Errorf("equivalent atom set joins to %d tuples, core.XJoin to %d", gj.Output, e.rows)
	}
	e.vals["wcoj.seeks"] = float64(gj.Seeks)
	e.vals["wcoj.intersections"] = float64(gj.Intersections)
	e.vals["wcoj.leaf_batches"] = float64(gj.Batches)
	e.vals["wcoj.seeks_per_row"] = float64(gj.Seeks) / float64(max(gj.Output, 1))

	e.opens, e.shapes = make(map[string][]openCall), make(map[string][]openCall)
	seen := make(map[string]bool)
	for _, c := range calls {
		kind := atomKind(e.atoms[c.atom])
		e.opens[kind] = append(e.opens[kind], c)
		shape := fmt.Sprint(c.atom, c.attr)
		for _, b := range c.bound {
			shape += " " + b.attr
		}
		if !seen[shape] {
			seen[shape] = true
			e.shapes[kind] = append(e.shapes[kind], c)
		}
	}
	values := 0
	for _, c := range e.opens["ad"] {
		it, err := e.atoms[c.atom].Open(c.attr, c.bound)
		if err != nil {
			return nil, err
		}
		for ; !it.AtEnd(); it.Next() {
			values++
		}
		it.Close()
	}
	if n := len(e.opens["ad"]); n > 0 {
		e.vals["structix.ad_values_per_open"] = float64(values) / float64(n)
	}
	return e, nil
}

// replay repeats recorded Open calls against atoms.
func replay(atoms []wcoj.Atom, calls []openCall) error {
	for _, c := range calls {
		it, err := atoms[c.atom].Open(c.attr, c.bound)
		if err != nil {
			return err
		}
		it.Close()
	}
	return nil
}

// join runs the equivalent atom set serially or over two morsel workers and
// checks that it emits what core.XJoin did.
func (e *engineProbe) join(workers int) (gj *wcoj.GenericJoinStats, err error) {
	if workers == 1 {
		gj, err = wcoj.GenericJoinStreamOpts(e.atoms, e.order, wcoj.StreamOpts{}, noTuple)
	} else {
		gj, err = wcoj.GenericJoinParallelStreamOpts(e.atoms, e.order, wcoj.ParallelOpts{Workers: workers}, noTuple)
	}
	if err == nil && gj.Output != e.rows {
		err = fmt.Errorf("wcoj join over %d workers emitted %d tuples, want %d", workers, gj.Output, e.rows)
	}
	return gj, err
}

func joinSpan(workers int) string {
	if workers == 1 {
		return "wcoj.join"
	}
	return "wcoj.join_parallel2"
}

// warm records the chain below one warm core.XJoin call. x is the span
// standing for that call; with x == 0 the probe runs it itself under parent.
func (e *engineProbe) warm(tr *tracer, op, parent, x int) error {
	var err error
	if x == 0 {
		if x, err = tr.do(op, parent, "core.xjoin", func() error {
			_, err := core.XJoin(e.q, e.opts)
			return err
		}); err != nil {
			return err
		}
	}
	s, err := tr.do(op, x, "core.stream", func() error {
		_, err := core.XJoinStream(e.q, e.opts, noTuple)
		return err
	})
	if err != nil {
		return err
	}
	j, err := tr.do(op, s, joinSpan(e.workers), func() error { _, err := e.join(e.workers); return err })
	if err != nil {
		return err
	}
	// One span per atom kind covers that kind's whole replay; the per-open
	// metrics divide it by the number of opens.
	for _, k := range []struct{ kind, span, perOpenUS, perOpenAllocs string }{
		{"ad", "structix.ad_open", "structix.ad_open_us", "structix.ad_open_allocs"},
		{"table", "wcoj.table_open", "wcoj.table_open_us", ""},
		{"xml", "xmldb.value_open", "", ""},
	} {
		calls := e.opens[k.kind]
		if len(calls) == 0 {
			continue
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		if err := replay(e.atoms, calls); err != nil {
			return err
		}
		d := time.Since(start)
		runtime.ReadMemStats(&m1)
		tr.add(op, j, k.span, start, d)
		if k.perOpenUS != "" {
			e.samples.add(k.perOpenUS, d.Seconds()*1e6/float64(len(calls)))
		}
		if k.perOpenAllocs != "" {
			e.samples.add(k.perOpenAllocs, float64(m1.Mallocs-m0.Mallocs)/float64(len(calls)))
		}
	}
	return nil
}

// alternatives records, as root spans of the op, the entry points that are
// not on the op's own path but that later changes will compare against it:
// the hybrid plan, the other worker count, the bound-driven planner, the
// bound computation and a hash-join chain over the acyclic tail.
func (e *engineProbe) alternatives(tr *tracer, op int) error {
	other := 3 - e.workers
	steps := []step{
		{joinSpan(other), func() error { _, err := e.join(other); return err }},
		{"core.plan", func() error { _, err := core.MinBoundOrder(e.q); return err }},
		{"core.bounds", func() error { _, err := core.ComputeBounds(e.q); return err }},
	}
	if e.hybrid {
		steps = append(steps, step{"core.hybrid", func() error {
			o := e.opts
			o.Plan = core.PlanHybrid
			res, err := core.XJoin(e.q, o)
			if err == nil && res.Stats.Output+res.Stats.ValidationRemoved != e.rows {
				err = fmt.Errorf("hybrid plan produced %d tuples, want %d", res.Stats.Output+res.Stats.ValidationRemoved, e.rows)
			}
			return err
		}})
	}
	if e.tail != nil {
		steps = append(steps, step{"wcoj.hash_join", func() error { _, _, err := wcoj.ChainHashJoin("tail", e.tail); return err }})
	}
	if err := runSteps(tr, op, steps); err != nil {
		return err
	}
	// The scheduler counters come from one two-worker run; they depend on
	// scheduling, so they are reported, never checked.
	gj, err := e.join(2)
	if err != nil {
		return err
	}
	e.vals["wcoj.morsel_splits"] = float64(gj.Splits)
	e.vals["wcoj.morsel_steals"] = float64(gj.Steals)
	return nil
}

// cold records, under parent, the index builds a cold run of the query pays,
// each on fresh structures — the xmldb value indexes, the structix region
// index, and the table atoms' sorted-column indexes — and, as a root span,
// the document load. Lazy
// builds are triggered the way the join triggers them — by the first Open of
// each shape the recorded join used.
func (e *engineProbe) cold(tr *tracer, op, parent int) error {
	if e.load != nil { // loading is set-up on every workload, never part of an op
		if _, err := tr.do(op, 0, "xmldb.load", e.load); err != nil {
			return err
		}
	}
	cat := catalog.New(0)
	var atoms []wcoj.Atom
	if e.pattern != nil {
		if _, err := tr.do(op, parent, "xmldb.index_build", func() error {
			cat.Indexes(e.doc)
			atoms = defaultAtoms(cat, e.doc, e.pattern, e.tables)
			return replay(atoms, e.shapes["xml"])
		}); err != nil {
			return err
		}
		if _, err := tr.do(op, parent, "structix.build", func() error { return replay(atoms, e.shapes["ad"]) }); err != nil {
			return err
		}
		e.vals["structix.build_bytes"] = float64(cat.StructIndex(e.doc).Info().ApproxBytes)
	} else {
		atoms = defaultAtoms(cat, nil, nil, e.tables)
	}
	if _, err := tr.do(op, parent, "wcoj.table_index_build", func() error { return replay(atoms, e.shapes["table"]) }); err != nil {
		return err
	}
	var bytes int64
	for _, a := range atoms {
		if t, ok := a.(*wcoj.TableAtom); ok {
			bytes += t.IndexInfo().ApproxBytes
		}
	}
	e.vals["wcoj.table_index_bytes"] = float64(bytes)
	return nil
}

// layers returns the probe's explicit per-layer values.
func (e *engineProbe) layers() map[string]float64 {
	out := make(map[string]float64, len(e.vals))
	for k, v := range e.vals {
		out[k] = v
	}
	e.samples.medians(out)
	return out
}
