package wcoj

import (
	"fmt"

	"repro/internal/cachehook"
	"repro/internal/relational"
)

// GenericJoinStats records the per-stage behaviour of an attribute-at-a-time
// join — the quantities Lemma 3.5 bounds.
type GenericJoinStats struct {
	// Order is the attribute expansion order used.
	Order []string
	// StageSizes[i] is |T_i|: the number of partial tuples explored at the
	// i-th attribute (for a completed run, the materialized stage size).
	StageSizes []int
	// PeakIntermediate is max over StageSizes.
	PeakIntermediate int
	// Output is the final tuple count.
	Output int
	// Intersections counts candidate-cursor intersections performed.
	// Scalar totals (Intersections, Seeks, Batches) are derived: the
	// executors count into the per-level slices below and fold them into
	// the scalars once per run via finalizeLevels.
	Intersections int
	// Seeks counts iterator Seek calls issued while leapfrogging.
	Seeks int
	// Batches counts the key vectors the batched leaf-level loop delivered
	// (every leaf value arrives in exactly one batch, so for a completed
	// run the count is serial-identical across executors).
	Batches int
	// LevelIntersections[i] counts intersections opened at the i-th order
	// attribute — which join level dominates is the per-instance signal
	// EXPLAIN ANALYZE reports.
	LevelIntersections []int
	// LevelSeeks[i] counts Seek calls issued while leapfrogging at the
	// i-th order attribute.
	LevelSeeks []int
	// LevelBatches[i] counts batched key vectors delivered at the i-th
	// order attribute (nonzero only at the leaf level).
	LevelBatches []int
	// Splits counts the sub-morsels the parallel executor re-queued by
	// splitting a running task's remaining work within a first-attribute
	// key — the recursive-morsel response to skew. Always 0 for serial
	// runs; scheduling-dependent in parallel ones.
	Splits int
	// Steals counts tasks a parallel worker claimed from another worker's
	// deque. Always 0 for serial and single-worker runs;
	// scheduling-dependent otherwise.
	Steals int
	// DeadlineStops counts tasks the parallel executor refused to start
	// because the remaining deadline budget could not cover one more
	// morsel (see ParallelOpts.Deadline). Always 0 for serial runs and
	// for runs without a deadline; nonzero exactly when the deadline
	// gate pre-empted the run.
	DeadlineStops int
}

// Merge folds the counters of other — a partition of the same join's work,
// e.g. one parallel worker's local statistics — into s. Every numeric field
// is merged here and nowhere else (TestStatsMergeCoversAllFields enforces
// that new fields get a merge rule): StageSizes add elementwise, the scalar
// counters add, and PeakIntermediate is recomputed as the maximum merged
// stage size, matching the serial executor's definition. Order is taken
// from whichever side has it.
func (s *GenericJoinStats) Merge(other *GenericJoinStats) {
	if s.Order == nil {
		s.Order = other.Order
	}
	if len(other.StageSizes) > len(s.StageSizes) {
		grown := make([]int, len(other.StageSizes))
		copy(grown, s.StageSizes)
		s.StageSizes = grown
	}
	for i, n := range other.StageSizes {
		s.StageSizes[i] += n
	}
	s.LevelIntersections = mergeLevelCounts(s.LevelIntersections, other.LevelIntersections)
	s.LevelSeeks = mergeLevelCounts(s.LevelSeeks, other.LevelSeeks)
	s.LevelBatches = mergeLevelCounts(s.LevelBatches, other.LevelBatches)
	s.Output += other.Output
	s.Intersections += other.Intersections
	s.Seeks += other.Seeks
	s.Batches += other.Batches
	s.Splits += other.Splits
	s.Steals += other.Steals
	s.DeadlineStops += other.DeadlineStops
	s.recomputePeak()
}

// mergeLevelCounts adds b into a elementwise, growing a as needed.
func mergeLevelCounts(a, b []int) []int {
	if len(b) > len(a) {
		grown := make([]int, len(b))
		copy(grown, a)
		a = grown
	}
	for i, n := range b {
		a[i] += n
	}
	return a
}

// allocLevels sizes StageSizes and the per-level counter slices for an
// n-attribute run out of a single backing array — one allocation, so the
// per-level split does not change the executors' allocation budget.
func (s *GenericJoinStats) allocLevels(n int) {
	backing := make([]int, 4*n)
	s.StageSizes = backing[0*n : 1*n : 1*n]
	s.LevelIntersections = backing[1*n : 2*n : 2*n]
	s.LevelSeeks = backing[2*n : 3*n : 3*n]
	s.LevelBatches = backing[3*n : 4*n : 4*n]
}

// finalizeLevels folds the per-level counters into the scalar totals.
// Executors count exclusively into the level slices during a run and
// call this exactly once at the end (after any worker merge).
func (s *GenericJoinStats) finalizeLevels() {
	s.Intersections, s.Seeks, s.Batches = 0, 0, 0
	for _, n := range s.LevelIntersections {
		s.Intersections += n
	}
	for _, n := range s.LevelSeeks {
		s.Seeks += n
	}
	for _, n := range s.LevelBatches {
		s.Batches += n
	}
}

// recomputePeak refreshes PeakIntermediate from StageSizes.
func (s *GenericJoinStats) recomputePeak() {
	s.PeakIntermediate = 0
	for _, n := range s.StageSizes {
		if n > s.PeakIntermediate {
			s.PeakIntermediate = n
		}
	}
}

// GenericJoinResult is the materialized join output: tuples over the
// attribute order used (Stats.Order).
type GenericJoinResult struct {
	Attrs  []string
	Tuples []relational.Tuple
	Stats  GenericJoinStats
}

// GenericJoin is the materializing wrapper over GenericJoinStream: it runs
// the streaming executor and collects every emitted tuple. Callers that can
// consume tuples one at a time should use GenericJoinStream directly and
// skip the result allocation entirely.
func GenericJoin(atoms []Atom, order []string) (*GenericJoinResult, error) {
	res := &GenericJoinResult{}
	stats, err := GenericJoinStream(atoms, order, func(t relational.Tuple) bool {
		res.Tuples = append(res.Tuples, append(relational.Tuple(nil), t...))
		return true
	})
	if err != nil {
		return nil, err
	}
	res.Attrs = stats.Order
	res.Stats = *stats
	return res, nil
}

// orderPositions maps each attribute of order to its position, rejecting
// duplicates.
func orderPositions(order []string) (map[string]int, error) {
	pos := make(map[string]int, len(order))
	for i, a := range order {
		if _, dup := pos[a]; dup {
			return nil, fmt.Errorf("wcoj: duplicate attribute %q in order", a)
		}
		pos[a] = i
	}
	return pos, nil
}

// groupAtoms is the prologue of every driver: it positions the attributes
// of order and groups atoms by the order position of each attribute they
// mention, validating that atom attributes appear in the order and that
// every order attribute is covered by at least one atom.
func groupAtoms(atoms []Atom, order []string) (map[string]int, [][]Atom, error) {
	pos, err := orderPositions(order)
	if err != nil {
		return nil, nil, err
	}
	// Count each depth's group first, so every group is a window of one
	// backing array; counts of up to 16 depths stay on the stack.
	var buf [16]int
	counts := buf[:min(len(order), len(buf))]
	if len(order) > len(buf) {
		counts = make([]int, len(order))
	}
	total := 0
	for _, at := range atoms {
		for _, a := range at.Attrs() {
			i, ok := pos[a]
			if !ok {
				return nil, nil, fmt.Errorf("wcoj: atom %s attribute %q missing from order", at.Name(), a)
			}
			counts[i]++
			total++
		}
	}
	byAttr := make([][]Atom, len(order))
	backing := make([]Atom, total)
	for i, n := range counts {
		byAttr[i], backing = backing[:0:n], backing[n:]
	}
	for _, at := range atoms {
		for _, a := range at.Attrs() {
			i := pos[a]
			byAttr[i] = append(byAttr[i], at)
		}
	}
	for i, g := range byAttr {
		if len(g) == 0 {
			return nil, nil, fmt.Errorf("wcoj: attribute %q not covered by any atom", order[i])
		}
	}
	return pos, byAttr, nil
}

// prefixBinding adapts a partial tuple over a prefix of the global order to
// the Binding interface. It also carries the run's build control (see
// BuildController): atoms opening under it can poll the run's
// cancellation and budget-admission probes from inside lazy index builds.
type prefixBinding struct {
	pos   map[string]int
	tuple relational.Tuple
	ctl   cachehook.BuildControl
}

func (b *prefixBinding) Get(attr string) (relational.Value, bool) {
	i, ok := b.pos[attr]
	if !ok || i >= len(b.tuple) {
		return relational.Null, false
	}
	return b.tuple[i], true
}

// BuildControl implements BuildController.
func (b *prefixBinding) BuildControl() cachehook.BuildControl { return b.ctl }
