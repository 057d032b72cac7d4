// Package wcoj implements worst-case optimal join machinery over both
// relational and virtual (XML-backed) relations, unified behind one
// cursor contract:
//
//   - Atom is one relation participating in a join. An implementation only
//     has to produce, for any (attribute, binding of its other attributes)
//     pair, a sorted cursor over the candidate values — AtomIterator, with
//     the Leapfrog operations Key/Next/Seek/Close. Physical tables
//     (TableAtom, backed by lazily built sorted-column indexes; an XML
//     parent-child edge is one, over the structix package's pair table),
//     constant sets (SetAtom), sorted-array tries (TrieAtom), the core
//     package's unary XML tag atoms, and the structix package's lazy
//     region-interval A-D atom (stab-query cursors over a document's
//     per-tag value runs — no materialized pair sets) all implement it, and
//     the executors cannot tell them apart.
//
//   - Every executor is a driver over the same iterators: the streaming
//     attribute-at-a-time GenericJoinStream (the paper's Algorithm 1 main
//     loop, depth-first, emitting through a callback — Veldhuizen's
//     Leapfrog Triejoin, the paper's reference [9], generalized from tries
//     to any Atom) and the morsel-driven GenericJoinParallelMorsels, which
//     runs that same loop in every worker.
//
//   - Physical tables are compiled against the run's attribute order
//     instead of being asked through Open (compiled.go): every TableAtom
//     gets one step per depth that fixes its index shape and the binding
//     positions of its bound columns, resolves its index once per run and
//     owns its cursor, and reaches its next level the trie-cursor way —
//     from the position of the atom's cursor one depth up, an offset read
//     instead of a search — whenever that cursor is open in the run and
//     its target is the highest bound column (every two-column table, and
//     every table enumerated in column order). Morsel sub-tasks entering
//     below their prefix, and tables enumerated out of column order, fall
//     back to one binary search on a key read by position. Atom.Open stays
//     the path of every other atom and the compiled steps' oracle.
//
//   - At each attribute the candidate sets are intersected by leapfrogging
//     the open cursors (seeking each laggard to the current maximum), so no
//     per-call candidate set is ever materialized.
//
// # Executor matrix
//
// There is one join loop (streamRun) and two drivers over it:
//
//   - GenericJoinStream / GenericJoinStreamOpts — serial. Depth-first,
//     O(depth) memory, inline on the caller's goroutine, emits through a
//     callback in lexicographic order, terminates early when the callback
//     declines. Use whenever one core is enough.
//
//   - GenericJoinParallelMorsels — morsel-parallel, and the same loop
//     again: its driver is a streamRun that packs from its first key,
//     cutting the first attribute's intersection into morsels, and each
//     worker streams the depth-first loop over its share into its own
//     sink, with O(workers × depth) memory; a sink that declines a tuple
//     stops every worker through the shared stop flag, which is all a
//     limit is.
//     Morsels live in per-worker deques with Leis-style work stealing
//     (owners pop LIFO for locality, starved workers steal FIFO from the
//     fattest deque), and morsels are recursive: when a skewed key turns
//     one morsel into most of the join, the worker grinding it sheds the
//     untouched suffix of each enumeration level as sub-morsels for
//     thieves, so speedup tracks the worker count even when one
//     first-attribute key owns ~all the output. GenericJoinStats reports
//     the scheduler's response as Splits/Steals (both zero in serial
//     runs). Tuple arrival order is scheduling-dependent; sinks receive
//     each task's OrdKey, and a MorselCollector reassembles the serial
//     sequence from them. GenericJoinParallelStreamOpts (one shared yield)
//     and GenericJoinParallelOpts (in-order collection) are its two
//     conveniences.
//
//   - GenericJoin — GenericJoinStream plus result collection: the
//     materializing reference the tests compare every other path against.
//     LeapfrogTriejoin is GenericJoinStream over prebuilt TrieAtoms — the
//     independent backend TableAtom is checked against.
//
//   - Hybrid plans (chosen by the core planner's GYO decomposition) are
//     not a separate driver: each acyclic subplan runs through the pooled
//     ChainHashJoin and its intermediate enters the generic join as a
//     MaterializedAtom — an ordinary Atom behind the same Open contract,
//     so morsel parallelism, LIMIT/EXISTS and batched leaves work
//     unchanged across the strategy seam. When such an atom alone covers
//     the whole remaining attribute suffix, the runners skip the
//     per-attribute recursion and emit its sorted residual tuples
//     wholesale (see residual.go), in the identical lexicographic order.
//
// The innermost attribute is intersected in batches: the lead cursor
// proposes up to 64 candidate values in one NextBatch call and the other
// cursors vet them by seeking, so per-value interface dispatch is paid
// once per vector instead of once per value. Cursors opt into the fast
// path by implementing BatchIterator (TableAtom column runs, value sets,
// tries and the structix region cursors all do); everything else is
// adapted transparently, and the loop is observably equivalent to the
// tuple-at-a-time one — GenericJoinStats.Batches counts delivered
// vectors and is identical across serial and parallel runs.
//
// Cancellation: StreamOpts is the one option set — ParallelOpts embeds it
// and the hash joins take it — and one stopper implements its contract
// everywhere. Cancel is an external *atomic.Bool (the morsel-parallel
// family adopts it as the run's shared stop flag), read before each
// partial tuple's intersection, so the latency from flipping it to the
// executor returning is bounded by one key's work per depth (serially) or
// one in-flight morsel per worker (in parallel) — independent of result
// size; the hash joins read it once per checkInterval probe rows.
// Build.Check is the scheduler-independent backstop, polled every
// checkInterval units of work and by every lazy index build; it works with
// or without Cancel, and a true return raises Cancel when one is set. A cancelled run returns its
// partial statistics with a nil error; interpreting the abandonment
// (context deadline, client disconnect) is the caller's job. Runs that
// set neither pay two nil tests per partial tuple and allocate nothing.
// Inside the batched leaf loop the flag is honoured per emitted value, so
// batching never widens the cancellation window.
//
// Every driver accepts every atom family: physical TableAtoms, SetAtom /
// TrieAtom, core's virtual Tag/Edge/AD XML atoms, and structix's lazy
// region-interval RegionADAtom — whose Opens are fully concurrent
// (lock-guarded lazy build, pooled cursors), so it runs unchanged under
// the morsel-parallel drivers.
//
// Failure semantics: the streaming drivers never let a fault escape as a
// crash or a leak. A panic anywhere in a run — an atom's Open or Seek, a
// worker's enumeration, the caller's emit callback — is recovered at the
// executor boundary and returned as a *PanicError (value plus captured
// stack); the recovering executor flips the shared stop flag so sibling
// workers drain within one morsel's work, every opened cursor is closed
// exactly once (pooled iterators go back to their pools, never doubly;
// a compiled table step's owned cursor is only marked closed),
// and all goroutines join before the driver returns. Lazily built indexes
// participate in cancellation through StreamOpts.Build (a
// cachehook.BuildControl threaded onto the binding, recoverable via the
// BuildController interface): builds poll it every ~1024 rows/nodes and
// abandon with cachehook.ErrBuildCancelled, which the executors absorb as
// a stop signal — an abandoned build is indistinguishable from an early
// limit stop, and the discarded partial structure leaves its shared slot
// retryable. A build refused by the control's admission policy
// (cachehook.ErrBudgetExceeded) is the one build error that propagates as
// the run's error, so callers can rerun in a cheaper configuration. As
// with cancellation, partial statistics accompany every failure return.
//
// Atoms are designed to be borrowed, not owned: a process-lifetime catalog
// (internal/catalog) can hand the same TableAtom (and the XML atoms'
// backing indexes) to many queries at once, and the lazily built index
// entries register with it through internal/cachehook for byte-budgeted
// LRU eviction. Executors never notice an eviction — live cursors hold
// slices into immutable arrays that outlive the cache entry, a compiled
// table step holds its index until its run ends, and the next Open (or
// run) rebuilds lazily — so drivers need no residency awareness at all.
//
// Observability: every run fills one GenericJoinStats, identically across
// the executor matrix. During execution the per-attribute counters —
// LevelIntersections, LevelSeeks, LevelBatches, StageSizes — are the only
// ones written (executors count into preallocated level slots, workers
// merge elementwise), and finalizeLevels folds them into the scalar
// Intersections/Seeks/Batches totals once per run, so the hot loop pays
// no extra bookkeeping for the per-level breakdown. Build timing is
// reported through the same cachehook.BuildControl that admits builds
// (a nil test when no Built callback is hooked), which is how EXPLAIN ANALYZE's trace sees each lazy index build without
// the executors knowing traces exist. When observability is off, every
// hook degenerates to a nil test — the faultpoint discipline.
//
// The package also keeps the conventional binary joins (hash and
// nested-loop) used by the baseline's relational query Q1 and the hybrid
// planner's acyclic subplans.
package wcoj

import (
	"sync"

	"repro/internal/relational"
)

// Binding exposes the values bound so far during an attribute-at-a-time
// join.
type Binding interface {
	// Get returns the value bound to attr, if any.
	Get(attr string) (relational.Value, bool)
}

// Atom is one relation participating in a worst-case optimal join.
// Implementations exist for physical tables (TableAtom), tries (TrieAtom),
// constant sets (SetAtom) and, in the core package, for the paper's virtual
// XML parent-child relations — the whole point of the interface is that the
// executors cannot tell them apart.
type Atom interface {
	// Name identifies the atom in diagnostics and statistics.
	Name() string
	// Attrs returns the atom's attributes.
	Attrs() []string
	// Open returns a cursor over the sorted distinct values attr may take,
	// given the values b binds for this atom's other attributes (attributes
	// not bound are existentially quantified). attr is always one of
	// Attrs(). Cursors must be independent: the executors keep one cursor
	// per atom open at every recursion depth and atoms are shared across
	// the parallel executor's goroutines, so an implementation must not
	// reuse live cursor state across Open calls (pool cursors and recycle
	// them in Close instead, as the implementations here do).
	Open(attr string, b Binding) (AtomIterator, error)
}

// AtomIterator is a sorted cursor over the candidate values one atom
// proposes for one attribute under a fixed binding — the seek/next contract
// of Leapfrog Triejoin. Values are distinct and strictly increasing.
type AtomIterator interface {
	// AtEnd reports whether the cursor is exhausted.
	AtEnd() bool
	// Key returns the value at the cursor; it must not be called AtEnd.
	Key() relational.Value
	// Next advances to the next larger value (it may reach the end).
	Next()
	// Seek positions the cursor at the least value >= v, which may be the
	// current value; it may leave the cursor AtEnd. v never decreases over
	// the life of the cursor.
	Seek(v relational.Value)
	// Close releases the cursor; implementations recycle them. The cursor
	// must not be used after Close.
	Close()
}

// BatchIterator is the optional vectorized extension of AtomIterator:
// cursors that can deliver a run of consecutive values in one call
// implement it, and the executors' batched leaf loop uses it (through the
// NextBatch helper) to amortize per-value interface dispatch. NextBatch
// copies up to len(dst) values into dst starting with the current Key,
// advances the cursor past the last value delivered, and returns the
// count — 0 iff the cursor is AtEnd or dst is empty. It is observably
// equivalent to the Key/Next loop it replaces; Seek and the other
// AtomIterator methods keep working between batches. Cursors that cannot
// do better than one value at a time simply don't implement it — the
// NextBatch helper falls back to an adapter loop.
type BatchIterator interface {
	AtomIterator
	NextBatch(dst []relational.Value) int
}

// valuesIter is the shared slice-backed AtomIterator: a cursor over an
// ascending []Value (a ValueSet's backing array or one run of a TableAtom
// column index). Instances are pooled so steady-state Open/Close performs
// no allocation — except the owned cursors of compiled table steps (see
// tableStep), which live in their run and which Close never pools. An
// owned cursor is open while vals is non-nil.
type valuesIter struct {
	vals  []relational.Value
	pos   int
	owned bool
}

var valuesIterPool = sync.Pool{New: func() any { return new(valuesIter) }}

// openValues returns a pooled cursor over vals, which must be sorted and
// distinct (nil means the empty set).
func openValues(vals []relational.Value) *valuesIter {
	it := valuesIterPool.Get().(*valuesIter)
	it.vals = vals
	it.pos = 0
	return it
}

// OpenValueSet returns a cursor over a ValueSet, for Atom implementations
// outside this package whose candidates are already materialized sets. A
// nil set is the empty set.
func OpenValueSet(vs *relational.ValueSet) AtomIterator {
	if vs == nil {
		return openValues(nil)
	}
	return openValues(vs.Values())
}

// OpenValues returns a pooled cursor over vals, which must be sorted and
// strictly increasing (nil means the empty set) and must stay immutable
// while the cursor is open. It is the zero-allocation Open path for Atom
// implementations outside this package whose candidates live in sorted
// slices — e.g. the structix region atoms' cached projections.
func OpenValues(vals []relational.Value) AtomIterator {
	return openValues(vals)
}

func (it *valuesIter) AtEnd() bool           { return it.pos >= len(it.vals) }
func (it *valuesIter) Key() relational.Value { return it.vals[it.pos] }
func (it *valuesIter) Next()                 { it.pos++ }

func (it *valuesIter) Seek(v relational.Value) {
	// Galloping search from the current position: cheap for the short hops
	// leapfrogging mostly takes, still O(log n) for long ones.
	lo, hi := it.pos, len(it.vals)
	if lo < hi && it.vals[lo] >= v {
		return
	}
	step := 1
	for lo+step < hi && it.vals[lo+step] < v {
		lo += step
		step <<= 1
	}
	if lo+step < hi {
		hi = lo + step + 1
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if it.vals[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	it.pos = lo
}

func (it *valuesIter) Close() {
	it.vals = nil
	if !it.owned {
		valuesIterPool.Put(it)
	}
}

// NextBatch fills dst with the cursor's next run of values — natively when
// it implements BatchIterator, through a Key/Next adapter loop otherwise —
// so every AtomIterator participates in the batched hot path without
// changing: the adapter is exactly the loop the batch replaces. It returns
// the number of values written; 0 means the cursor is exhausted (or dst is
// empty).
func NextBatch(it AtomIterator, dst []relational.Value) int {
	if b, ok := it.(BatchIterator); ok {
		return b.NextBatch(dst)
	}
	n := 0
	for n < len(dst) && !it.AtEnd() {
		dst[n] = it.Key()
		n++
		it.Next()
	}
	return n
}

// NextBatch implements BatchIterator with a single bulk copy out of the
// backing array — the reason TableAtom runs, value sets and the structix
// projections all ride the vectorized leaf loop at memcpy speed.
func (it *valuesIter) NextBatch(dst []relational.Value) int {
	n := copy(dst, it.vals[it.pos:])
	it.pos += n
	return n
}

// closeAll closes every iterator in its.
func closeAll(its []AtomIterator) {
	for _, it := range its {
		it.Close()
	}
}

// leapfrogEach runs the Leapfrog intersection over open cursors, invoking f
// for every value present in all of them, in increasing order. It reports
// false if f stopped the enumeration. seeks, when non-nil, counts the Seek
// calls issued.
func leapfrogEach(its []AtomIterator, seeks *int, f func(relational.Value) bool) bool {
	if len(its) == 0 {
		return true
	}
	for _, it := range its {
		if it.AtEnd() {
			return true
		}
	}
	max := its[0].Key()
	for _, it := range its[1:] {
		if k := it.Key(); k > max {
			max = k
		}
	}
	for {
		// Drag every laggard up to max; a pass with no overshoot means all
		// cursors agree on max.
		aligned := true
		for _, it := range its {
			if it.Key() < max {
				it.Seek(max)
				if seeks != nil {
					*seeks++
				}
				if it.AtEnd() {
					return true
				}
				if k := it.Key(); k > max {
					max = k
					aligned = false
				}
			}
		}
		if !aligned {
			continue
		}
		if !f(max) {
			return false
		}
		lead := its[0]
		lead.Next()
		if lead.AtEnd() {
			return true
		}
		if k := lead.Key(); k > max {
			max = k
		}
	}
}
