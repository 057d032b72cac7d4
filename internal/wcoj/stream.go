package wcoj

import (
	"errors"
	"math/bits"
	"sync/atomic"

	"repro/internal/cachehook"
	"repro/internal/faultpoint"
	"repro/internal/relational"
)

// streamRun is the depth-first attribute-at-a-time expansion loop — the
// paper's Algorithm 1 main loop — factored out so the serial executor
// (GenericJoinStream) and every morsel-parallel worker drive the same code
// over their own private state — the morsel driver included, which is a
// run that packs from its first key. A run owns its iterator scratch,
// binding buffer, statistics and its compiled table steps; only the atoms
// (whose Open must be safe for concurrent use) and the optional stop flag
// are shared.
//
// Every TableAtom of up to nine columns is compiled against the order
// when the run is built (see compiled.go): each (atom, depth) owns one
// cursor for the whole run, resolves its index once, at its first open,
// and opens by an offset read from the atom's cursor one depth up
// wherever that cursor is open. Every other atom opens through
// Atom.Open, which for a TableAtom stays the oracle the compiled path is
// tested against. The run holds each resolved index until it ends, so an
// index the catalog evicts mid-run stays valid (and referenced) for the
// rest of the run.
//
// Two optional behaviours ride on the same loop:
//
//   - the leaf depth (the last attribute) enumerates batched: its
//     intersection runs through leapfrogBatch, delivering key vectors, and
//     tuples are emitted from a tight per-value loop that still honours the
//     stop flag per value and the check backstop per checkInterval values;
//
//   - a parallel worker may set splitGate/spawn, turning the run
//     splittable: when the gate reports starving workers, every
//     enumeration level packs its remaining keys into sub-tasks handed to
//     spawn — instead of expanding them — on the way out of the recursion,
//     so the remainder of a hot subtree fans out across the pool. Packing
//     reuses the very enumeration that was already running, so cursor
//     traffic (and therefore merged statistics) stays serial-identical.
//     The morsel driver is the same mechanism with wantSplit set from the
//     start: rec(0) packs the first attribute's keys into root morsels.
type streamRun struct {
	order  []string
	byAttr [][]Atom
	stats  *GenericJoinStats
	// lv is per-depth state: the open cursors and where the depth's
	// compiled steps start in steps.
	lv      []runLevel
	steps   []tableStep
	binding relational.Tuple
	b       prefixBinding
	// batch is the leaf-level key-vector buffer; it shares one allocation
	// with binding (see newStreamRun).
	batch []relational.Value
	// emit receives each full binding; it is responsible for Output
	// accounting.
	emit    func(relational.Tuple) bool
	openErr error
	// st is the run's cancellation contract, polled once per partial tuple
	// (inside leaf batches, its flag per value), so cancellation latency is
	// bounded by one key's work at each depth, never by a batch. Its flag
	// is executor-wide: another worker failed or had its sink return false,
	// or an external context watcher asked the whole run to abandon.
	st stopper

	// splitGate, when non-nil, is polled every splitPeriod partial tuples;
	// a true return (the scheduler reporting starving workers and an empty
	// queue) flips wantSplit for the rest of the current task.
	splitGate func() bool
	// spawn hands a packed sub-task — a cloned prefix and an owned run of
	// keys for the attribute at len(prefix) — to the scheduler. Sub-tasks
	// are spawned in serial output order.
	spawn     func(prefix, keys []relational.Value)
	wantSplit bool
	sinceGate int
	// packing state: while packing, enumeration at packDepth collects keys
	// into packKeys (flushed to spawn in packSize chunks under the cloned
	// packPrefix) instead of recursing below them. packSize is
	// subMorselSize for workers; the driver's spawn adapts it.
	packSize   int
	packing    bool
	packDepth  int
	packPrefix []relational.Value
	packKeys   []relational.Value

	// tail, when non-nil, is a materialized binary intermediate that alone
	// covers every attribute from tailStart on: rec switches to tailLoop
	// there, emitting the atom's sorted residual tuples wholesale instead
	// of running one leapfrog level per attribute (see residual.go). Only
	// *MaterializedAtom tails engage the path — base-relation joins keep
	// the exact cursor traffic their statistics tests pin down. tailH
	// caches one resolved handle per entry depth (sub-morsels re-enter
	// mid-tail, each depth is its own residual shape).
	tail      *MaterializedAtom
	tailStart int
	tailH     []*ResidualHandle
}

// runLevel is one depth of a run.
type runLevel struct {
	// its holds the cursors open at the depth, reused across the run.
	its []AtomIterator
	// tables has bit j set when the j-th atom of the depth's group is
	// compilable (only the first 64 atoms of a group can be); the run's
	// steps from soff on hold one step per set bit, in group order. Every
	// other atom opens through Atom.Open.
	tables uint64
	soff   int
}

// checkInterval is how many units of work — partial tuples, probe rows —
// may pass between check polls: large enough that the poll (an atomic
// context-error load) vanishes in the join work, small enough that
// cancellation latency stays well under a millisecond of exploration. The
// leaf loop advances the counter by whole batches (leafBatchSize <<
// checkInterval), preserving the cadence.
const checkInterval = 1024

// stopper is the one cancellation contract of every executor in this
// package. stop, when non-nil, is the run-wide flag and is read on every
// call; check, when non-nil, is the scheduler-independent backstop, polled
// once per checkInterval units of work, and a true return raises stop.
// The backstop exists because the flag alone depends on another goroutine
// (the context watcher) getting scheduled — on a saturated single-CPU box
// that can take a full preemption quantum, during which a fast join
// finishes anyway. A run without either pays two nil tests per call.
type stopper struct {
	stop  *atomic.Bool
	check func() bool
	since int
}

// stopped charges n units of work and reports whether the run must stop.
func (s *stopper) stopped(n int) bool {
	if s.stop != nil && s.stop.Load() {
		return true
	}
	if s.check == nil {
		return false
	}
	if s.since += n; s.since < checkInterval {
		return false
	}
	s.since = 0
	if !s.check() {
		return false
	}
	if s.stop != nil {
		s.stop.Store(true)
	}
	return true
}

// splitPeriod is how many partial tuples may pass between split-gate
// polls: two atomic loads every splitPeriod values bounds gate overhead
// under half a percent while a starving pool still gets fed within a few
// microseconds of work.
const splitPeriod = 256

// subMorselSize is how many keys one packed sub-task carries. Small
// enough to fan a hot subtree across every worker, large enough that
// scheduling overhead stays marginal against a key's expansion work.
const subMorselSize = 64

// newStreamRun builds a run over the grouped atoms (see groupAtoms; pos is
// shared, read-only) under opts' cancellation contract and build control.
func newStreamRun(order []string, byAttr [][]Atom, pos map[string]int, opts StreamOpts, stats *GenericJoinStats, emit func(relational.Tuple) bool) *streamRun {
	// binding (cap len(order), never grows past it) and the leaf batch
	// buffer share one allocation; the full slice expressions keep append
	// from ever crossing the boundary.
	vbuf := make([]relational.Value, len(order)+leafBatchSize)
	lv := make([]runLevel, len(order))
	nAtoms, nSteps := 0, 0
	for i, g := range byAttr {
		nAtoms += len(g)
		for j, at := range g {
			if compilable(at) != nil {
				lv[i].tables |= 1 << uint(j)
			}
		}
		nSteps += bits.OnesCount64(lv[i].tables)
	}
	backing := make([]AtomIterator, nAtoms)
	r := &streamRun{
		order:    order,
		byAttr:   byAttr,
		stats:    stats,
		lv:       lv,
		steps:    make([]tableStep, nSteps),
		binding:  relational.Tuple(vbuf[:0:len(order)]),
		batch:    vbuf[len(order):],
		b:        prefixBinding{pos: pos},
		emit:     emit,
		st:       opts.stopper(),
		packSize: subMorselSize,
	}
	r.b.ctl = r.buildControl(opts.Build)
	off, soff := 0, 0
	for i := range lv {
		n := len(byAttr[i])
		lv[i].its = backing[off : off : off+n]
		lv[i].soff = soff
		off, soff = off+n, soff+bits.OnesCount64(lv[i].tables)
	}
	r.compileSteps(pos)
	// Detect a materialized tail: the longest order suffix (of at least two
	// attributes) whose every attribute is covered by one and the same
	// MaterializedAtom.
	if n := len(order); n >= 2 && len(byAttr[n-1]) == 1 {
		if m, ok := byAttr[n-1][0].(*MaterializedAtom); ok {
			start := n - 1
			for start > 0 && len(byAttr[start-1]) == 1 && byAttr[start-1][0] == Atom(m) {
				start--
			}
			if start <= n-2 {
				r.tail, r.tailStart = m, start
				r.tailH = make([]*ResidualHandle, n)
			}
		}
	}
	return r
}

// gate advances the split-gate counter by n partial tuples and flips
// wantSplit when the scheduler wants work shed.
func (r *streamRun) gate(n int) {
	if r.splitGate == nil || r.wantSplit {
		return
	}
	if r.sinceGate += n; r.sinceGate >= splitPeriod {
		r.sinceGate = 0
		if r.splitGate() {
			r.wantSplit = true
		}
	}
}

// beginPack starts packing the remainder of the enumeration at depth: the
// current binding prefix is cloned (the live buffer keeps mutating) and
// subsequent values at this depth collect into sub-tasks instead of
// recursing.
func (r *streamRun) beginPack(depth int) {
	r.packing = true
	r.packDepth = depth
	r.packPrefix = append([]relational.Value(nil), r.binding[:depth]...)
}

// pack buffers one key of the packing level, flushing a sub-task per
// packSize keys. It reports false when the run was cancelled (packing
// performs no emission of its own, so it must poll the stop flag itself).
func (r *streamRun) pack(v relational.Value) bool {
	if r.st.stopped(1) {
		return false
	}
	if r.packKeys == nil {
		r.packKeys = make([]relational.Value, 0, r.packSize)
	}
	r.packKeys = append(r.packKeys, v)
	if len(r.packKeys) >= r.packSize {
		r.flushPack()
	}
	return true
}

// flushPack spawns the buffered keys as one sub-task, handing the buffer
// over to it; the next key starts a fresh one.
func (r *streamRun) flushPack() {
	if len(r.packKeys) == 0 {
		return
	}
	keys := r.packKeys
	r.packKeys = nil
	r.spawn(r.packPrefix, keys)
}

// endPack closes a packing episode opened at depth, if one is active.
func (r *streamRun) endPack(depth int) {
	if r.packing && r.packDepth == depth {
		r.flushPack()
		r.packing = false
		r.packPrefix = nil
	}
}

// buildControl composes the caller's build control with the run's own
// stop flag, so a lazy index build triggered from an Open aborts for any
// reason the enumeration itself would stop — external cancellation, a
// sibling worker's failure, a declining sink. The caller's Check, the
// run's backstop, already rides in base.
func (r *streamRun) buildControl(base cachehook.BuildControl) cachehook.BuildControl {
	stop, inner := r.st.stop, base.Check
	if stop == nil {
		return base
	}
	base.Check = func() bool { return stop.Load() || inner != nil && inner() }
	return base
}

// closeDepth closes the cursors recorded open at depth and marks the
// depth empty, so a later closeOpen never returns a pooled iterator
// twice.
func (r *streamRun) closeDepth(depth int) {
	lv := &r.lv[depth]
	closeAll(lv.its)
	lv.its = lv.its[:0]
}

// closeOpen closes every cursor the run still holds — the panic-cleanup
// path. rec keeps each depth's its exactly in sync with the cursors it has
// open (resetting the depth right after its normal closeAll), so this
// releases precisely the leaked cursors of an abandoned recursion, each
// once; an owned cursor closed here is marked closed, so no later open
// descends from it.
func (r *streamRun) closeOpen() {
	for d := range r.lv {
		r.closeDepth(d)
	}
}

// open returns a cursor over the values of the attribute at depth that
// the j-th atom of its group proposes under the current binding: the
// compiled step's own cursor, or the atom's Open.
func (r *streamRun) open(depth, j int) (AtomIterator, error) {
	s := r.step(depth, j)
	if s == nil || s.a == nil {
		return r.byAttr[depth][j].Open(r.order[depth], &r.b)
	}
	if err := s.open(r.binding, r.b.ctl); err != nil {
		return nil, err
	}
	return &s.it, nil
}

// step returns the step of the j-th atom of depth's group, or nil.
func (r *streamRun) step(depth, j int) *tableStep {
	lv := &r.lv[depth]
	bit := uint64(1) << uint(j)
	if lv.tables&bit == 0 {
		return nil
	}
	return &r.steps[lv.soff+bits.OnesCount64(lv.tables&(bit-1))]
}

// rec expands the attribute at depth under the bindings accumulated so far
// (r.binding holds depth values). It reports false when the enumeration
// stopped early — emit declined, the run was cancelled, or an Open failed
// (r.openErr).
func (r *streamRun) rec(depth int) bool {
	// The stop check covers the leaf depth too, so once the flag is up no
	// further tuple is emitted — post-cancel emissions are bounded by the
	// one call already in flight per worker, not by a key-run's tail.
	if r.st.stopped(1) {
		return false
	}
	r.gate(1)
	if depth == len(r.order) {
		return r.emit(r.binding)
	}
	if r.tail != nil && depth >= r.tailStart && len(r.order)-depth >= 2 &&
		!r.packing && !(r.wantSplit && r.spawn != nil) {
		// Every remaining attribute comes from the materialized tail alone:
		// emit its residual tuples wholesale. Packing/splitting episodes
		// take the generic path instead — sub-tasks re-enter the tail one
		// depth further down. A one-attribute remainder stays on the
		// batched leaf loop, whose single-cursor run is already wholesale.
		return r.tailLoop(depth)
	}
	r.b.tuple = r.binding
	lv := &r.lv[depth]
	lv.its = lv.its[:0]
	for j := range r.byAttr[depth] {
		it, err := r.open(depth, j)
		if err == nil {
			err = faultpoint.Inject("wcoj.atom.open")
		}
		if err != nil {
			if it != nil {
				it.Close()
			}
			r.closeDepth(depth)
			return r.failOpen(err)
		}
		if it.AtEnd() {
			// Empty candidate set: no intersection to perform.
			it.Close()
			r.closeDepth(depth)
			return true
		}
		lv.its = append(lv.its, it)
	}
	open := lv.its
	r.stats.LevelIntersections[depth]++
	if depth == len(r.order)-1 {
		cont := r.leafLoop(open, depth)
		r.endPack(depth)
		r.closeDepth(depth)
		return cont
	}
	cont := leapfrogEach(open, &r.stats.LevelSeeks[depth], func(v relational.Value) bool {
		r.stats.StageSizes[depth]++
		if r.packing {
			return r.pack(v)
		}
		if r.wantSplit && r.spawn != nil {
			// The scheduler wants work: from here on this level's keys
			// become sub-tasks. The enumeration itself continues — it is
			// exactly the cursor traffic the serial executor would do — but
			// the recursion below each key moves to the pool.
			r.beginPack(depth)
			return r.pack(v)
		}
		r.binding = append(r.binding, v)
		c := r.rec(depth + 1)
		r.binding = r.binding[:len(r.binding)-1]
		return c
	})
	r.endPack(depth)
	r.closeDepth(depth)
	return cont
}

// failOpen ends the enumeration on a failed Open and reports false. A lazy
// build that observed the run stopping and abandoned is absorbed: the run
// ends as whatever raised the stop (cancellation, a sink stop, a sibling's
// failure), not as an error of its own. Any other error becomes r.openErr.
func (r *streamRun) failOpen(err error) bool {
	if !errors.Is(err, cachehook.ErrBuildCancelled) {
		r.openErr = err
	} else if r.st.stop != nil {
		r.st.stop.Store(true)
	}
	return false
}

// tailLoop expands every attribute from depth on in one step: the
// materialized tail atom alone covers them, so its residual run under the
// current binding — sorted distinct suffix tuples, in exactly the
// lexicographic order the per-attribute recursion would enumerate — is
// emitted directly. StageSizes stay serial-identical to the generic path:
// a suffix prefix of length j+1 is counted at depth+j the first time it
// appears, which the sort makes a one-comparison check against the
// previous tuple. LevelSeeks and LevelBatches record no work here because
// none happens — no cursor is opened past the single binary search.
func (r *streamRun) tailLoop(depth int) bool {
	h := r.tailH[depth]
	if h == nil {
		var err error
		h, err = r.tail.ResidualHandle(r.order[depth:])
		if err != nil {
			r.openErr = err
			return false
		}
		r.tailH[depth] = h
	}
	r.b.tuple = r.binding
	run, err := h.Run(&r.b)
	if err == nil {
		err = faultpoint.Inject("wcoj.atom.open")
	}
	if err != nil {
		return r.failOpen(err)
	}
	if len(run) == 0 {
		return true
	}
	k := len(r.order) - depth
	r.stats.LevelIntersections[depth]++
	base := len(r.binding)
	var prev []relational.Value
	for i := 0; i < len(run); i += k {
		if r.st.stopped(1) {
			return false
		}
		r.gate(1)
		tup := run[i : i+k]
		d0 := 0
		if prev != nil {
			for d0 < k && prev[d0] == tup[d0] {
				d0++
			}
		}
		for j := d0; j < k; j++ {
			r.stats.StageSizes[depth+j]++
		}
		prev = tup
		r.binding = append(r.binding, tup...)
		ok := r.emit(r.binding)
		r.binding = r.binding[:base]
		if !ok {
			return false
		}
	}
	return true
}

// leafLoop enumerates the last attribute's intersection batched,
// dispatching to the all-slice fast path when every cursor is a
// valuesIter. Emission stays per value (the stop flag is consulted before
// every tuple, exactly like the scalar loop), and when the run is packing
// the delivered vectors are packed instead of emitted.
func (r *streamRun) leafLoop(open []AtomIterator, depth int) bool {
	deliver := func(vs []relational.Value) bool {
		r.stats.LevelBatches[depth]++
		if r.packing || (r.wantSplit && r.spawn != nil) {
			if !r.packing {
				r.beginPack(depth)
			}
			for _, v := range vs {
				r.stats.StageSizes[depth]++
				if !r.pack(v) {
					return false
				}
			}
			return true
		}
		base := len(r.binding)
		r.binding = append(r.binding, 0)
		for _, v := range vs {
			if r.st.stop != nil && r.st.stop.Load() {
				r.binding = r.binding[:base]
				return false
			}
			r.stats.StageSizes[depth]++
			r.binding[base] = v
			if !r.emit(r.binding) {
				r.binding = r.binding[:base]
				return false
			}
		}
		r.binding = r.binding[:base]
		// The check backstop and the split gate tick per value even though
		// they are only consulted between batches.
		if r.st.stopped(len(vs)) {
			return false
		}
		r.gate(len(vs))
		return true
	}
	// The fast-path cursor list lives in a fixed stack array (it never
	// escapes leapfrogBatchValues), so the dispatch costs no allocation;
	// joins with more leaf cursors than the array take the generic path.
	var arr [8]*valuesIter
	if len(open) >= 2 && len(open) <= len(arr) {
		vs := arr[:0]
		allValues := true
		for _, it := range open {
			vi, ok := it.(*valuesIter)
			if !ok {
				allValues = false
				break
			}
			vs = append(vs, vi)
		}
		if allValues {
			return leapfrogBatchValues(vs, &r.stats.LevelSeeks[depth], r.batch, deliver)
		}
	}
	return leapfrogBatch(open, &r.stats.LevelSeeks[depth], r.batch, deliver)
}

// StreamOpts is the one option set of the executors in this package: the
// serial streaming executor takes it as is, ParallelOpts embeds it, and
// the hash joins honour its cancellation contract — Cancel and
// Build.Check — while building nothing. The zero value is the default
// configuration — GenericJoinStream — and pays nothing for the options it
// does not use.
type StreamOpts struct {
	// Cancel, when non-nil, is an external cancellation flag: once it reads
	// true the executor abandons the enumeration after at most one key's
	// worth of work per depth (the flag is checked before every partial
	// tuple's intersection, and per value inside leaf batches) and returns
	// the statistics accumulated so far with a nil error — cancellation is
	// the caller's protocol, not an executor failure. The core layer points
	// this at a flag flipped by a context watcher. The morsel-parallel
	// executor adopts the flag as its shared stop flag and raises it itself
	// on a sink stop or a failure, so it is owned by one run.
	Cancel *atomic.Bool
	// Build carries run-scoped controls into the lazy index builds
	// Atom.Open may trigger: a cancellation probe (Check), a
	// budget-admission probe (Admit) and a build reporter (Built).
	// Build.Check is also the executors' own backstop: they poll it every
	// checkInterval partial tuples, and a true return stops the run and
	// raises Cancel if it is set. It makes cancellation latency independent
	// of goroutine scheduling: even when the flag's writer never gets a CPU
	// slot — a saturated single-core box — the executor notices a dead
	// context within ~one thousand partial tuples. The core layer passes a
	// direct context-error probe; under ParallelOpts it must be safe for
	// concurrent calls. Each run composes Build.Check with Cancel, so builds
	// stop for every reason the enumeration would; a build aborted that
	// way is absorbed as a stop, while a refused admission
	// (cachehook.ErrBudgetExceeded) surfaces as the run's error so the
	// caller can degrade and retry.
	Build cachehook.BuildControl
}

// stopper returns the cancellation contract of one run under opts.
func (o StreamOpts) stopper() stopper {
	return stopper{stop: o.Cancel, check: o.Build.Check}
}

// GenericJoinStream evaluates the natural join of atoms by expanding one
// attribute at a time in the given order — the paper's Algorithm 1 main
// loop — depth-first, without materializing any stage: at each depth the
// candidate values are the leapfrogged intersection of the cursors every
// atom mentioning the attribute opens under the bindings so far (the last
// depth runs batched, see BatchIterator). Result tuples are emitted in
// lexicographic order of the attribute order; emit receives a transient
// tuple and returning false stops the enumeration early.
//
// Every attribute of every atom must appear in order, and every attribute
// of order must occur in at least one atom. The returned StageSizes count
// the partial tuples explored per depth, which for a completed run equal
// the materializing executor's stage sizes.
func GenericJoinStream(atoms []Atom, order []string, emit func(relational.Tuple) bool) (*GenericJoinStats, error) {
	return GenericJoinStreamOpts(atoms, order, StreamOpts{}, emit)
}

// GenericJoinStreamOpts is GenericJoinStream with executor options — the
// cancellable form every context-aware core path drives.
func GenericJoinStreamOpts(atoms []Atom, order []string, opts StreamOpts, emit func(relational.Tuple) bool) (*GenericJoinStats, error) {
	pos, byAttr, err := groupAtoms(atoms, order)
	if err != nil {
		return nil, err
	}
	stats := &GenericJoinStats{Order: append([]string(nil), order...)}
	stats.allocLevels(len(order))
	r := newStreamRun(order, byAttr, pos, opts, stats, func(t relational.Tuple) bool {
		stats.Output++
		return emit(t)
	})
	if err := r.drive(); err != nil {
		return nil, err
	}
	stats.finalizeLevels()
	stats.recomputePeak()
	return stats, nil
}

// drive runs the serial enumeration on the caller's goroutine and returns
// the run's error. The serial path is panic-isolated like the workers: a
// panic in an atom, a lazy build, or the emit callback closes whatever
// cursors the recursion holds open (returning pooled iterators exactly
// once, marking owned ones closed) and surfaces as a *PanicError instead
// of unwinding into the caller.
func (r *streamRun) drive() (err error) {
	defer func() {
		if v := recover(); v != nil {
			r.closeOpen()
			err = newPanicError(v)
		}
	}()
	r.rec(0)
	return r.openErr
}
