package wcoj

import (
	"fmt"

	"repro/internal/relational"
)

// BinaryJoinStats records the work of a binary join plan — the
// conventional-side counterpart of GenericJoinStats, filled identically
// by the serial oracle wrappers and the executor-grade Opts variants.
type BinaryJoinStats struct {
	// StepSizes[i] is the cardinality after joining in the (i+1)-th table
	// of a chain (a single HashJoin records one step).
	StepSizes []int
	// PeakIntermediate is the largest materialized relation at any step.
	PeakIntermediate int
	// TotalIntermediate sums the step cardinalities — the total tuples a
	// chain materialized, the quantity binary plans pay that generic join
	// avoids.
	TotalIntermediate int
	// Output is the final tuple count.
	Output int
	// BuildRows counts rows inserted into hash tables.
	BuildRows int
	// Probes counts probe-side rows looked up.
	Probes int
	// Matches counts build-side matches emitted (pre-dedup).
	Matches int
}

// Merge folds the counters of other — a partition of the same plan's
// work — into s. Every numeric field is merged here and nowhere else
// (TestBinaryStatsMergeCoversAllFields enforces that new fields get a
// merge rule): StepSizes add elementwise, the scalar counters add, and
// PeakIntermediate is recomputed as the maximum merged step size.
func (s *BinaryJoinStats) Merge(other *BinaryJoinStats) {
	s.StepSizes = mergeLevelCounts(s.StepSizes, other.StepSizes)
	s.TotalIntermediate += other.TotalIntermediate
	s.Output += other.Output
	s.BuildRows += other.BuildRows
	s.Probes += other.Probes
	s.Matches += other.Matches
	s.PeakIntermediate = 0
	for _, n := range s.StepSizes {
		if n > s.PeakIntermediate {
			s.PeakIntermediate = n
		}
	}
}

// recordStep appends one chain step's cardinality and keeps the derived
// aggregates consistent.
func (s *BinaryJoinStats) recordStep(n int) {
	s.StepSizes = append(s.StepSizes, n)
	s.TotalIntermediate += n
	if n > s.PeakIntermediate {
		s.PeakIntermediate = n
	}
}

// HashJoin computes the natural join of a and b with a build/probe hash
// join on their shared attributes (a cartesian product when they share
// none). The result schema is a's attributes followed by b's non-shared
// attributes. It is the stats-free, uncancellable convenience form of
// HashJoinOpts.
func HashJoin(name string, a, b *relational.Table) (*relational.Table, error) {
	return HashJoinOpts(name, a, b, StreamOpts{}, nil)
}

// HashJoinOpts is HashJoin with the executor contract: the hash table is
// pre-sized to the build side, the output pre-sized to the probe side,
// per-row work is counted into stats (when non-nil), and the cancellation
// contract in opts is honoured every checkInterval probe rows (Build is
// ignored). A cancelled join returns the partial output with a nil error —
// like the streaming drivers, interpreting the abandonment is the caller's
// job, and the partial table is a subset of the full result, so downstream
// operators stay sound under partial-result semantics.
func HashJoinOpts(name string, a, b *relational.Table, opts StreamOpts, stats *BinaryJoinStats) (*relational.Table, error) {
	shared, bOnly := splitAttrs(a, b)
	outAttrs := append(append([]string(nil), a.Schema().Attrs()...), bOnly...)
	schema, err := relational.NewSchema(outAttrs...)
	if err != nil {
		return nil, fmt.Errorf("wcoj: joining %s and %s: %w", a.Name(), b.Name(), err)
	}
	out := relational.NewTable(name, schema)

	// Build on the smaller input; BuildHashIndex pre-sizes its buckets to
	// the build side's row count.
	build, probe := a, b
	swapped := false
	if b.Len() < a.Len() {
		build, probe = b, a
		swapped = true
	}
	buildCols := make([]int, len(shared))
	probeCols := make([]int, len(shared))
	for i, s := range shared {
		bc, _ := build.Schema().Pos(s)
		pc, _ := probe.Schema().Pos(s)
		buildCols[i] = bc
		probeCols[i] = pc
	}
	idx := relational.BuildHashIndex(build, buildCols...)
	if stats != nil {
		stats.BuildRows += build.Len()
	}

	aCols := a.Schema().Attrs()
	bOnlyPos := make([]int, len(bOnly))
	for i, s := range bOnly {
		p, _ := b.Schema().Pos(s)
		bOnlyPos[i] = p
	}
	aPos := make([]int, len(aCols))
	for i, s := range aCols {
		p, _ := a.Schema().Pos(s)
		aPos[i] = p
	}

	// A foreign-key-like probe emits about one row per probe row; larger
	// outputs fall back to append's doubling from a warm start.
	out.Grow(probe.Len())
	key := make([]relational.Value, len(shared))
	row := make(relational.Tuple, schema.Len())
	n := probe.Len()
	matches := 0
	st := opts.stopper()
	for r := 0; r < n; r++ {
		// One poll per checkInterval rows keeps the flag's atomic load out
		// of the per-row cost.
		if r%checkInterval == checkInterval-1 && st.stopped(checkInterval) {
			break
		}
		for i, c := range probeCols {
			key[i] = probe.Value(r, c)
		}
		idx.Probe(key, func(br int) bool {
			// br indexes the build side, r the probe side; map them back to
			// (a-row, b-row).
			ar, brr := br, r
			if swapped {
				ar, brr = r, br
			}
			for i, c := range aPos {
				row[i] = a.Value(ar, c)
			}
			for i, c := range bOnlyPos {
				row[len(aPos)+i] = b.Value(brr, c)
			}
			matches++
			// Append cannot fail: row matches the schema by construction.
			_ = out.Append(row)
			return true
		})
	}
	if stats != nil {
		stats.Probes += n
		stats.Matches += matches
	}
	return out, nil
}

// ChainHashJoin joins the tables left-deep in the given order, recording
// intermediate sizes. The result has set semantics (deduplicated). It is
// the uncancellable convenience form of ChainHashJoinOpts.
func ChainHashJoin(name string, tables []*relational.Table) (*relational.Table, *BinaryJoinStats, error) {
	return ChainHashJoinOpts(name, tables, StreamOpts{})
}

// ChainHashJoinOpts is ChainHashJoin with the executor contract: every
// hash-join step honours the cancellation contract in opts (a cancelled
// chain stops after its current step's poll interval and returns the
// partial accumulator) and the per-step counters land in the returned
// stats.
func ChainHashJoinOpts(name string, tables []*relational.Table, opts StreamOpts) (*relational.Table, *BinaryJoinStats, error) {
	if len(tables) == 0 {
		return nil, nil, fmt.Errorf("wcoj: no tables to join")
	}
	stats := &BinaryJoinStats{}
	acc := tables[0].Clone()
	acc.Dedup()
	stats.recordStep(acc.Len())
	st := opts.stopper()
	for _, t := range tables[1:] {
		// A step is a full poll interval's worth of work: Build.Check runs
		// before every step.
		if st.stopped(checkInterval) {
			break
		}
		next, err := HashJoinOpts(name, acc, t, opts, stats)
		if err != nil {
			return nil, nil, err
		}
		next.Dedup()
		acc = next
		stats.recordStep(acc.Len())
	}
	stats.Output = acc.Len()
	return acc, stats, nil
}

// NestedLoopJoin is the quadratic natural-join oracle used in tests; it
// honours the same cancellation contract as the hash joins (polled every
// checkInterval outer rows).
func NestedLoopJoin(name string, a, b *relational.Table) (*relational.Table, error) {
	return NestedLoopJoinOpts(name, a, b, StreamOpts{})
}

// NestedLoopJoinOpts is NestedLoopJoin with the cancellation contract.
func NestedLoopJoinOpts(name string, a, b *relational.Table, opts StreamOpts) (*relational.Table, error) {
	shared, bOnly := splitAttrs(a, b)
	outAttrs := append(append([]string(nil), a.Schema().Attrs()...), bOnly...)
	schema, err := relational.NewSchema(outAttrs...)
	if err != nil {
		return nil, err
	}
	out := relational.NewTable(name, schema)
	sharedA := make([]int, len(shared))
	sharedB := make([]int, len(shared))
	for i, s := range shared {
		sharedA[i], _ = a.Schema().Pos(s)
		sharedB[i], _ = b.Schema().Pos(s)
	}
	bOnlyPos := make([]int, len(bOnly))
	for i, s := range bOnly {
		bOnlyPos[i], _ = b.Schema().Pos(s)
	}
	row := make(relational.Tuple, schema.Len())
	st := opts.stopper()
	for i := 0; i < a.Len(); i++ {
		if i%checkInterval == checkInterval-1 && st.stopped(checkInterval) {
			break
		}
		for j := 0; j < b.Len(); j++ {
			match := true
			for k := range shared {
				if a.Value(i, sharedA[k]) != b.Value(j, sharedB[k]) {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			copy(row, a.Row(i))
			for k, c := range bOnlyPos {
				row[a.Schema().Len()+k] = b.Value(j, c)
			}
			_ = out.Append(row)
		}
	}
	return out, nil
}

func splitAttrs(a, b *relational.Table) (shared, bOnly []string) {
	for _, s := range b.Schema().Attrs() {
		if a.Schema().Contains(s) {
			shared = append(shared, s)
		} else {
			bOnly = append(bOnly, s)
		}
	}
	return shared, bOnly
}
