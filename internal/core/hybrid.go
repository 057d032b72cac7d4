package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cachehook"
	"repro/internal/hypergraph"
	"repro/internal/obs"
	"repro/internal/relational"
	"repro/internal/wcoj"
)

// PlanMode selects the executor strategy mix for a run. The worst-case
// optimal generic join earns its AGM guarantee on cyclic joins, but on the
// acyclic fringe of a query a conventional left-deep hash-join chain does
// the same work with cheaper per-tuple constants and no risk of blowup
// (acyclic intermediates are bounded once dangling tuples are pruned). The
// hybrid planner splits the query hypergraph with GYO ear removal — the
// residual core stays on the generic join, the ears are cost-checked and
// materialized by binary hash joins — and feeds the binary intermediates
// back into the top-level generic join as MaterializedAtoms, so every
// executor feature (morsel parallelism, LIMIT/EXISTS short-circuit,
// validation, streaming) works unchanged across the seam.
type PlanMode int

const (
	// PlanWCOJ runs the pure generic join over all atoms — the default and
	// the zero value, today's execution path.
	PlanWCOJ PlanMode = iota
	// PlanHybrid splits the query: the GYO cyclic core (and any fringe the
	// cost model rejects) stays on the generic join; acyclic ear clusters
	// whose estimated intermediates stay within binaryCostFactor of their
	// input size are materialized by binary hash-join chains.
	PlanHybrid
	// PlanBinary forces every connected component through a binary
	// hash-join chain (components wider than a TableAtom's 64-column limit
	// stay on the generic join); the top-level generic join then only
	// enumerates the materialized intermediates. The oracle/baseline mode
	// the hybrid is compared against.
	PlanBinary
)

// String names the mode for statistics and EXPLAIN output.
func (m PlanMode) String() string {
	switch m {
	case PlanHybrid:
		return "hybrid"
	case PlanBinary:
		return "binary"
	default:
		return "wcoj"
	}
}

// planLabel is the Stats.Plan value: empty for the default mode, so plan
// noise never appears on ordinary runs.
func (o Options) planLabel() string {
	if o.Plan == PlanWCOJ {
		return ""
	}
	return o.Plan.String()
}

// binaryCostFactor is the hybrid cost rule's budget: an ear cluster goes
// binary iff the estimated sum of its chain intermediates is at most this
// factor times its total input cardinality — i.e. when the chain provably
// (by the per-prefix AGM caps) or plausibly (by the independence estimate)
// stays near-linear, where hash joins beat the generic join's per-level
// intersection machinery.
const binaryCostFactor = 4.0

// Subplan is one unit of a HybridPlan: a set of executor atoms evaluated
// together under one strategy.
type Subplan struct {
	// Strategy is "wcoj" (the atoms stay in the top-level generic join) or
	// "binary" (the atoms are materialized by a hash-join chain and rejoin
	// the generic join as one MaterializedAtom).
	Strategy string
	// Reason explains the choice: "cyclic core", "acyclic fringe",
	// "forced", "single atom", "width over 64 attributes", or
	// "estimated intermediates exceed budget".
	Reason string
	// Name names the subplan; binary subplans' MaterializedAtoms carry it.
	Name string
	// Atoms are the member atom names — for binary subplans, in hash-join
	// chain order.
	Atoms []string
	// Attrs are the attributes the subplan covers, in first-appearance
	// order (a binary subplan's intermediate schema).
	Attrs []string
	// Inputs is the summed input cardinality of the member atoms.
	Inputs int
	// Bound is the weighted AGM bound of the subplan's own join — the
	// worst-case size of its result.
	Bound float64
	// Est is the estimated total intermediate cardinality of the binary
	// chain (independence estimate, capped per prefix by the AGM bound);
	// what the cost rule compares against binaryCostFactor*Inputs.
	Est float64
	// indices are the member atoms' positions in the executor atom list.
	indices []int
}

// HybridPlan is the decomposition of one query under one plan mode.
type HybridPlan struct {
	Mode     PlanMode
	Subplans []Subplan
}

// BinaryCount reports how many subplans run on the binary executor.
func (p *HybridPlan) BinaryCount() int {
	n := 0
	for i := range p.Subplans {
		if p.Subplans[i].Strategy == "binary" {
			n++
		}
	}
	return n
}

// hybridKey keys the per-query plan and materialization caches.
type hybridKey struct {
	ad   ADMode
	mode PlanMode
}

// hybridPlan returns (building and caching on first use) the decomposition
// of q under one A-D mode and plan mode. Planning runs GYO ear removal and
// a handful of small cover LPs; it materializes nothing, though reading the
// XML atoms' sizes and the tags' distinct counts builds their tag runs and
// P-C pair tables, under ctl — the run's build control, so a dead context
// abandons them. A failed plan is not cached.
func (q *Query) hybridPlan(ad ADMode, mode PlanMode, ctl cachehook.BuildControl) (*HybridPlan, error) {
	key := hybridKey{ad: ad, mode: mode}
	q.hmu.Lock()
	if p, ok := q.hybridPlanCache[key]; ok {
		q.hmu.Unlock()
		return p, nil
	}
	q.hmu.Unlock()
	p, err := buildHybridPlan(q, ad, mode, ctl)
	if err != nil {
		return nil, err
	}
	q.hmu.Lock()
	if q.hybridPlanCache == nil {
		q.hybridPlanCache = make(map[hybridKey]*HybridPlan)
	}
	q.hybridPlanCache[key] = p
	q.hmu.Unlock()
	return p, nil
}

// buildHybridPlan decomposes the executor hypergraph. PlanHybrid peels the
// GYO ears off the hypergraph, clusters them by shared attributes, and
// cost-checks each cluster; the residual cyclic core always stays on the
// generic join. PlanBinary instead takes whole connected components and
// forces them binary (width permitting). The hypergraph only picks the
// clusters (its edge i is atoms[i]); the costing reads the atoms. Its
// index builds run under ctl.
func buildHybridPlan(q *Query, ad ADMode, mode PlanMode, ctl cachehook.BuildControl) (*HybridPlan, error) {
	atoms := q.atoms(ad)
	sizes, err := atomSizes(atoms, ctl)
	if err != nil {
		return nil, err
	}
	h := hypergraph.New()
	for _, a := range atoms {
		if err := h.AddEdge(a.Name(), a.Attrs()); err != nil {
			return nil, err
		}
	}
	dist, err := attrDistincts(q, ctl)
	if err != nil {
		return nil, err
	}
	plan := &HybridPlan{Mode: mode}

	var clusters [][]int
	var core []int
	if mode == PlanBinary {
		clusters = h.ConnectedComponents()
	} else {
		red := h.EarRemoval()
		core = red.Core
		ears := make([]int, 0, len(red.Ears))
		for _, e := range red.Ears {
			ears = append(ears, e.Edge)
		}
		sort.Ints(ears) // removal order -> insertion order, for determinism
		clusters = attrClusters(h, ears)
	}

	if len(core) > 0 {
		sp := Subplan{Strategy: "wcoj", Reason: "cyclic core", indices: core}
		fillMembers(atoms, &sp, sizes)
		b, err := subBound(atoms, core, sizes)
		if err != nil {
			return nil, err
		}
		sp.Bound = b
		sp.Name = subplanName(sp.Atoms)
		plan.Subplans = append(plan.Subplans, sp)
	}
	for _, cl := range clusters {
		sp, err := costSubplan(atoms, cl, sizes, dist, mode)
		if err != nil {
			return nil, err
		}
		plan.Subplans = append(plan.Subplans, sp)
	}
	return plan, nil
}

// fillMembers populates a subplan's Atoms/Attrs/Inputs from its indices.
func fillMembers(atoms []wcoj.Atom, sp *Subplan, sizes map[string]int) {
	seen := make(map[string]bool)
	for _, i := range sp.indices {
		sp.Atoms = append(sp.Atoms, atoms[i].Name())
		sp.Inputs += sizes[atoms[i].Name()]
		for _, a := range atoms[i].Attrs() {
			if !seen[a] {
				seen[a] = true
				sp.Attrs = append(sp.Attrs, a)
			}
		}
	}
}

// costSubplan orders one cluster into a hash-join chain, estimates its
// intermediates and decides its strategy.
func costSubplan(atoms []wcoj.Atom, cluster []int, sizes, dist map[string]int, mode PlanMode) (Subplan, error) {
	sp := Subplan{indices: chainOrder(atoms, cluster, sizes)}
	fillMembers(atoms, &sp, sizes)
	sp.Name = subplanName(sp.Atoms)
	b, err := subBound(atoms, sp.indices, sizes)
	if err != nil {
		return sp, err
	}
	sp.Bound = b
	sp.Est = chainEstimate(atoms, sp.indices, sizes, dist, b)
	switch {
	case len(sp.Attrs) > 64:
		// A MaterializedAtom rides TableAtom's 64-column bitmask; wider
		// subplans cannot cross the seam and stay on the generic join.
		sp.Strategy, sp.Reason = "wcoj", "width over 64 attributes"
	case mode == PlanBinary:
		sp.Strategy, sp.Reason = "binary", "forced"
	case len(cluster) < 2:
		// Materializing a lone atom buys nothing the generic join's own
		// cursors don't already provide.
		sp.Strategy, sp.Reason = "wcoj", "single atom"
	case sp.Est <= binaryCostFactor*float64(sp.Inputs):
		sp.Strategy, sp.Reason = "binary", "acyclic fringe"
	default:
		sp.Strategy, sp.Reason = "wcoj", "estimated intermediates exceed budget"
	}
	return sp, nil
}

// chainOrder greedily orders a cluster for a left-deep hash-join chain:
// start from the smallest atom, then repeatedly append the smallest atom
// sharing an attribute with the covered prefix (clusters are attribute-
// connected, so a connected pick always exists; the fallback keeps the
// chain total even for a degenerate disconnected input — HashJoin degrades
// to a cartesian product there).
func chainOrder(atoms []wcoj.Atom, cluster []int, sizes map[string]int) []int {
	rem := append([]int(nil), cluster...)
	best := 0
	for k := range rem {
		if sizes[atoms[rem[k]].Name()] < sizes[atoms[rem[best]].Name()] {
			best = k
		}
	}
	out := []int{rem[best]}
	covered := make(map[string]bool)
	for _, a := range atoms[rem[best]].Attrs() {
		covered[a] = true
	}
	rem = append(rem[:best], rem[best+1:]...)
	for len(rem) > 0 {
		pick := -1
		for k := range rem {
			shares := false
			for _, a := range atoms[rem[k]].Attrs() {
				if covered[a] {
					shares = true
					break
				}
			}
			if !shares {
				continue
			}
			if pick < 0 || sizes[atoms[rem[k]].Name()] < sizes[atoms[rem[pick]].Name()] {
				pick = k
			}
		}
		if pick < 0 {
			pick = 0
		}
		out = append(out, rem[pick])
		for _, a := range atoms[rem[pick]].Attrs() {
			covered[a] = true
		}
		rem = append(rem[:pick], rem[pick+1:]...)
	}
	return out
}

// subBound is the weighted AGM bound of the atoms at idxs — the LP
// StageBounds runs per stage, here bounding one subplan's own result.
func subBound(atoms []wcoj.Atom, idxs []int, sizes map[string]int) (float64, error) {
	sub := make([]wcoj.Atom, len(idxs))
	for k, i := range idxs {
		sub[k] = atoms[i]
	}
	return agmBound(sub, sizes, nil)
}

// chainEstimate predicts the total intermediate cardinality of the chain:
// the classic attribute-independence estimate (each equijoin on a shared
// attribute divides the cross product by the attribute's distinct count),
// with the final prefix — the cluster's own result — capped by its AGM
// bound, which the caller already solved one LP for. Intermediate
// prefixes stay uncapped: their exact AGM caps would cost one LP each at
// plan time, and the independence estimate is already conservative enough
// to arbitrate the fringe. The sum mirrors
// BinaryJoinStats.TotalIntermediate.
func chainEstimate(atoms []wcoj.Atom, order []int, sizes, dist map[string]int, bound float64) float64 {
	est := float64(sizes[atoms[order[0]].Name()])
	total := est
	covered := make(map[string]bool)
	for _, a := range atoms[order[0]].Attrs() {
		covered[a] = true
	}
	for step := 1; step < len(order); step++ {
		at := atoms[order[step]]
		next := est * float64(sizes[at.Name()])
		for _, a := range at.Attrs() {
			if covered[a] {
				d := dist[a]
				if d < 1 {
					d = 1
				}
				next /= float64(d)
			}
		}
		if step == len(order)-1 && next > bound {
			next = bound
		}
		for _, a := range at.Attrs() {
			covered[a] = true
		}
		est = next
		total += est
	}
	return total
}

// attrClusters partitions the given edges into groups transitively
// connected by shared attributes (union-find, like ConnectedComponents but
// restricted to a subset), each group in insertion order.
func attrClusters(h *hypergraph.Hypergraph, idxs []int) [][]int {
	edges := h.Edges()
	parent := make(map[int]int, len(idxs))
	for _, i := range idxs {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	first := make(map[string]int)
	for _, i := range idxs {
		for _, a := range edges[i].Attrs {
			if j, ok := first[a]; ok {
				parent[find(i)] = find(j)
			} else {
				first[a] = i
			}
		}
	}
	groups := make(map[int][]int)
	var roots []int
	for _, i := range idxs {
		r := find(i)
		if _, ok := groups[r]; !ok {
			roots = append(roots, r)
		}
		groups[r] = append(groups[r], i)
	}
	out := make([][]int, 0, len(roots))
	for _, r := range roots {
		out = append(out, groups[r])
	}
	return out
}

// attrDistincts estimates each attribute's distinct-value count as the
// minimum over the base inputs mentioning it (tables' column distincts,
// tags' value-set sizes) — the denominator of the independence estimate.
// The tag runs build under ctl.
func attrDistincts(q *Query, ctl cachehook.BuildControl) (map[string]int, error) {
	d := make(map[string]int)
	consider := func(a string, n int) {
		if cur, ok := d[a]; !ok || n < cur {
			d[a] = n
		}
	}
	for _, t := range q.Tables {
		for i, a := range t.Schema().Attrs() {
			consider(a, t.DistinctCount(i))
		}
	}
	for _, tw := range q.twigs {
		for _, a := range tw.pattern.Attrs() {
			tr, err := tw.ix.Tag(a, ctl)
			if err != nil {
				return nil, err
			}
			consider(a, tr.Len())
		}
	}
	return d, nil
}

func subplanName(atoms []string) string {
	return "bin[" + strings.Join(atoms, " ") + "]"
}

// hybridAtoms resolves the executor atom list for a non-default plan mode:
// the atoms the plan keeps on the generic join, plus one MaterializedAtom
// per binary subplan. The top-level generic join then runs over this list
// with the unchanged full attribute order — natural join is associative,
// so substituting a subplan's join result for its member atoms preserves
// the answer while every executor feature keeps working across the seam.
//
// Planning and materialization run under the run's executor options
// sopts: the build control (context probe, catalog admission) and the
// cancellation contract. A stopped chain yields a partial intermediate,
// possibly short of its later members' columns, so once the stop flag is
// up the list is discarded and ErrBuildCancelled returned — the run maps
// it to the cancellation it is. Completed atom lists are cached per (A-D
// mode, plan mode), so repeated runs and prepared queries reuse the
// intermediates.
func (q *Query) hybridAtoms(opts Options, sopts wcoj.StreamOpts, span *obs.Span) ([]wcoj.Atom, error) {
	key := hybridKey{ad: opts.AD, mode: opts.Plan}
	plan, err := q.hybridPlan(opts.AD, opts.Plan, sopts.Build)
	if err != nil {
		return nil, err
	}
	q.hmu.Lock()
	if as, ok := q.hybridAtomCache[key]; ok {
		q.hmu.Unlock()
		return as, nil
	}
	q.hmu.Unlock()

	atoms := q.atoms(opts.AD)
	inBinary := make(map[int]bool)
	for i := range plan.Subplans {
		if plan.Subplans[i].Strategy != "binary" {
			continue
		}
		for _, j := range plan.Subplans[i].indices {
			inBinary[j] = true
		}
	}
	out := make([]wcoj.Atom, 0, len(atoms))
	for i, a := range atoms {
		if !inBinary[i] {
			out = append(out, a)
		}
	}
	for i := range plan.Subplans {
		sp := &plan.Subplans[i]
		if sp.Strategy != "binary" {
			continue
		}
		sub := span.Start("subplan " + sp.Name)
		m, merr := materializeSubplan(atoms, sp, sopts)
		if merr != nil {
			sub.End()
			return nil, merr
		}
		sub.SetStr("strategy", "binary")
		sub.SetInt("rows", int64(m.BinaryStats().Output))
		sub.SetInt("intermediate", int64(m.BinaryStats().TotalIntermediate))
		sub.End()
		out = append(out, m)
	}
	if f := sopts.Cancel; f != nil && f.Load() {
		return nil, cachehook.ErrBuildCancelled
	}
	q.hmu.Lock()
	if q.hybridAtomCache == nil {
		q.hybridAtomCache = make(map[hybridKey][]wcoj.Atom)
	}
	q.hybridAtomCache[key] = out
	q.hmu.Unlock()
	return out, nil
}

// materializeSubplan runs one binary subplan: each member atom becomes a
// table (directly for table atoms, through the cursor contract for virtual
// XML atoms), the chain hash join folds them in the planned order, and the
// deduplicated intermediate comes back wrapped as a MaterializedAtom.
func materializeSubplan(atoms []wcoj.Atom, sp *Subplan, sopts wcoj.StreamOpts) (*wcoj.MaterializedAtom, error) {
	tables := make([]*relational.Table, 0, len(sp.indices))
	for _, i := range sp.indices {
		t, err := atomTable(atoms[i], sopts)
		if err != nil {
			return nil, err
		}
		tables = append(tables, t)
	}
	out, stats, err := wcoj.ChainHashJoinOpts(sp.Name, tables, sopts)
	if err != nil {
		return nil, err
	}
	return wcoj.NewMaterializedAtom(sp.Name, out, stats), nil
}

// atomTable materializes one executor atom as a relational table. Physical
// table atoms hand over their table (the chain deduplicates); virtual XML
// atoms are bound once, like a run binds them, and enumerated through the
// same Atom.Open cursor contract the generic join uses, under the run's
// cancellation and build control.
func atomTable(a wcoj.Atom, sopts wcoj.StreamOpts) (*relational.Table, error) {
	if ta, ok := unwrapAtom(a).(*wcoj.TableAtom); ok {
		return ta.Table(), nil
	}
	bound, err := bindAtoms([]wcoj.Atom{a}, nil, sopts.Build)
	if err != nil {
		return nil, err
	}
	attrs := a.Attrs()
	schema, err := relational.NewSchema(attrs...)
	if err != nil {
		return nil, fmt.Errorf("core: materializing atom %s: %w", a.Name(), err)
	}
	sizes, err := atomSizes(bound, sopts.Build)
	if err != nil {
		return nil, err
	}
	t := relational.NewTable(a.Name(), schema)
	t.Grow(sizes[bound[0].Name()])
	_, err = wcoj.GenericJoinStreamOpts(bound, attrs, sopts, func(tu relational.Tuple) bool {
		_ = t.Append(tu)
		return true
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}
