package wcoj

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/relational"
)

// This file implements the morsel-driven parallel executor (after Leis et
// al., "Morsel-Driven Parallelism: A NUMA-Aware Query Evaluation Framework
// for the Many-Core Age", SIGMOD 2014, applied to Generic Join). Every
// goroutine of a run is a streamRun — the serial executor's loop — with
// its own cursors, binding buffer and statistics: the driver is a run that
// packs from its first key, leapfrogging the first attribute's
// intersection once and dealing the keys as morsels — small contiguous
// runs of first-attribute values — and each worker runs the depth-first
// loop over the tasks it claims.
//
// Scheduling is work-stealing over per-worker deques: the driver deals
// root morsels round-robin, a worker pops its own deque newest-first
// (depth-first locality) and steals oldest-first from its peers when dry.
// Skew is handled by recursive morsels: a worker grinding a hot
// first-attribute key notices — through a cheap periodic gate — that the
// rest of the pool is starving, and re-splits the *remainder* of its own
// subtree at whatever depth it is currently enumerating, re-queueing the
// shed keys as sub-tasks (see streamRun's packing machinery). One giant
// key therefore fans out across all workers instead of serializing onto
// one, while cursor traffic — and so the merged statistics — stays
// serial-identical. Per-worker memory stays O(depth) plus the transient
// keys of any level being shed. A shared stop flag lets any sink that
// declines a tuple — a limit reached, an Exists answered — short-circuit
// every worker.

// ParallelOpts tunes the morsel-driven parallel executor: the serial
// options plus the pool. The driver and every worker share one stop flag —
// Cancel when set (see StreamOpts.Cancel): once it rises the driver stops
// queueing morsels, every worker stops within one partial tuple, and the
// queues drain. Each of them polls Build.Check, which must therefore be
// safe for concurrent calls, and composes Build with the shared flag, so one
// worker's failure also aborts the builds its siblings are in the middle
// of.
type ParallelOpts struct {
	StreamOpts
	// Workers is the number of worker goroutines; <= 0 uses GOMAXPROCS.
	Workers int
	// Deadline, when nonzero, enables deadline-aware morsel scheduling:
	// before starting a claimed task each worker compares the remaining
	// budget against a shared EWMA of per-task wall time and, once one
	// more task no longer fits, raises the shared stop flag instead of
	// dequeuing — the run ends at a morsel boundary with its partial
	// answer rather than burning the final milliseconds mid-task.
	// Refusals are counted in GenericJoinStats.DeadlineStops. The gate
	// decides only at task boundaries; pair it with Cancel and Build.Check
	// (the context watcher and probe) for mid-task enforcement of the same
	// deadline.
	Deadline time.Time
}

// maxMorselSize caps the adaptive morsel growth; beyond this, queue
// overhead is already negligible and smaller morsels balance better.
const maxMorselSize = 256

// produceHi / produceLo throttle the driver: it pauses once produceHi
// unclaimed tasks per worker sit queued and resumes below produceLo —
// the backpressure the bounded channel of the pre-stealing scheduler
// provided, so a huge first attribute is never materialized up front.
const (
	produceHi = 4
	produceLo = 2
)

// ResolveWorkers maps a ParallelOpts.Workers value to the actual worker
// count the executor will use, so callers can size per-worker state.
func ResolveWorkers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// OrdKey locates one task's output within the serial executor's emission
// sequence: the root morsel's index followed by one sub-index per
// recursive split. Keys compare lexicographically with a parent prefix
// sorting before (= emitting before) its children's extensions — a task
// spawns sub-tasks only after its last own emission, in serial order of
// their key ranges — so concatenating per-task output in OrdKey order
// reproduces the serial tuple sequence exactly, splits or not.
type OrdKey []int32

// Less is the lexicographic order on OrdKeys, shorter prefix first.
func (k OrdKey) Less(o OrdKey) bool {
	n := len(k)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if k[i] != o[i] {
			return k[i] < o[i]
		}
	}
	return len(k) < len(o)
}

func (k OrdKey) equal(o OrdKey) bool {
	if len(k) != len(o) {
		return false
	}
	for i := range k {
		if k[i] != o[i] {
			return false
		}
	}
	return true
}

// child extends k with one sub-index, always into a fresh array (siblings
// must not share growth).
func (k OrdKey) child(sub int32) OrdKey {
	c := make(OrdKey, len(k)+1)
	copy(c, k)
	c[len(k)] = sub
	return c
}

// task is one stealable unit of work: expand each key of the attribute at
// depth len(prefix) under the bound prefix. Root tasks (the driver's
// morsels) have an empty prefix; recursive splits carry deeper ones. The
// slices are owned by the task (immutable once queued).
type task struct {
	ord    OrdKey
	prefix []relational.Value
	keys   []relational.Value
}

// taskDeque is one worker's queue: the owner pushes and pops at the tail
// (newest first — it continues the subtree it just shed, cursors warm),
// thieves take from the head (oldest first — the coarsest work). A plain
// mutex is plenty at morsel granularity.
type taskDeque struct {
	mu    sync.Mutex
	tasks []task
}

func (d *taskDeque) push(t task) {
	d.mu.Lock()
	d.tasks = append(d.tasks, t)
	d.mu.Unlock()
}

func (d *taskDeque) popTail() (task, bool) {
	d.mu.Lock()
	n := len(d.tasks)
	if n == 0 {
		d.mu.Unlock()
		return task{}, false
	}
	t := d.tasks[n-1]
	d.tasks[n-1] = task{}
	d.tasks = d.tasks[:n-1]
	d.mu.Unlock()
	return t, true
}

func (d *taskDeque) popHead() (task, bool) {
	d.mu.Lock()
	if len(d.tasks) == 0 {
		d.mu.Unlock()
		return task{}, false
	}
	t := d.tasks[0]
	d.tasks[0] = task{}
	d.tasks = d.tasks[1:]
	d.mu.Unlock()
	return t, true
}

// stealScheduler coordinates one run's tasks across the worker pool.
// Termination and parking run on three counters — pending (queued,
// unclaimed), active (claimed, running) and waiters (workers parked) —
// with one condition variable. The orderings that make it race-free:
// a pusher bumps pending before reading waiters, a parker bumps waiters
// (under the lock) before re-reading pending, so one of them always sees
// the other (no lost wakeup); a claimer bumps active before dropping
// pending, so no observer ever sees both counters at zero while work
// exists. The run is over when the driver is done and both counters read
// zero.
type stealScheduler struct {
	queues  []taskDeque
	mu      sync.Mutex
	cond    *sync.Cond
	pending atomic.Int64
	active  atomic.Int64
	waiters atomic.Int64
	done    atomic.Bool // driver finished producing root tasks
	// throttled marks the driver parked on the cond waiting for queue
	// drain; claimers wake it once pending drops below the low mark.
	throttled atomic.Bool
	steals    atomic.Int64
	splits    atomic.Int64
}

func newStealScheduler(workers int) *stealScheduler {
	s := &stealScheduler{queues: make([]taskDeque, workers)}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// push queues t on worker w's deque and wakes parked workers if any.
func (s *stealScheduler) push(w int, t task) {
	s.pending.Add(1)
	s.queues[w].push(t)
	if s.waiters.Load() > 0 {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// halt raises the run's stop flag and wakes a throttled driver or parked
// workers, so the stop is seen even when no further claim/release traffic
// would broadcast.
func (s *stealScheduler) halt(stop *atomic.Bool) {
	stop.Store(true)
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// throttleProduce blocks the driver while the queues are full enough;
// claim wakes it. A raised stop flag releases it immediately (the drain
// keeps claiming, so the wakeups keep coming either way).
func (s *stealScheduler) throttleProduce(stop *atomic.Bool) {
	if s.pending.Load() < int64(produceHi*len(s.queues)) {
		return
	}
	s.mu.Lock()
	s.throttled.Store(true)
	for s.pending.Load() >= int64(produceLo*len(s.queues)) && !stop.Load() {
		s.cond.Wait()
	}
	s.throttled.Store(false)
	s.mu.Unlock()
}

// produceDone marks the root-task stream complete and wakes everyone so
// parked workers re-evaluate termination.
func (s *stealScheduler) produceDone() {
	s.done.Store(true)
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// claim converts a successful pop into a running task.
func (s *stealScheduler) claim() {
	s.active.Add(1)
	if s.pending.Add(-1) < int64(produceLo*len(s.queues)) && s.throttled.Load() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// release retires a finished task, broadcasting when it was the last work
// in the system so parked workers exit.
func (s *stealScheduler) release() {
	if s.active.Add(-1) == 0 && s.done.Load() && s.pending.Load() == 0 {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// shouldSplit reports whether a running task ought to shed work: some
// worker is parked hungry and no queued task exists to feed it. This is
// the split gate streamRun polls every splitPeriod partial tuples.
func (s *stealScheduler) shouldSplit() bool {
	return s.waiters.Load() > 0 && s.pending.Load() == 0
}

// next returns worker w's next claimed task: own deque first, then a
// sweep of the peers (a steal), parking when no work is visible but the
// run may still produce some. ok=false means the run is over.
func (s *stealScheduler) next(w int) (task, bool) {
	for {
		if t, ok := s.queues[w].popTail(); ok {
			s.claim()
			return t, true
		}
		for i := 1; i < len(s.queues); i++ {
			if t, ok := s.queues[(w+i)%len(s.queues)].popHead(); ok {
				s.claim()
				s.steals.Add(1)
				return t, true
			}
		}
		if s.done.Load() && s.pending.Load() == 0 && s.active.Load() == 0 {
			return task{}, false
		}
		if s.pending.Load() > 0 {
			// A task is mid-push or mid-claim; re-scan rather than park.
			runtime.Gosched()
			continue
		}
		s.mu.Lock()
		s.waiters.Add(1)
		for s.pending.Load() == 0 && !(s.done.Load() && s.active.Load() == 0) {
			s.cond.Wait()
		}
		s.waiters.Add(-1)
		s.mu.Unlock()
	}
}

// GenericJoinParallelMorsels is the general morsel-driven entry point.
// mkSink is invoked once per worker (worker ids 0..Workers-1, resolved via
// ResolveWorkers); the returned sink receives, for every result tuple the
// worker finds, the OrdKey of the task it belongs to and the transient
// tuple (valid only during the call). Each worker's sink is called
// sequentially, a task is processed by exactly one worker, and one task's
// tuples arrive as one contiguous run per worker, so sinks may keep
// per-task state without locking; sinks of different workers run
// concurrently. A sink returning false cancels the whole run. Results
// within one task arrive in serial (lexicographic) order and OrdKeys
// order tasks by their position in the serial output, so concatenating
// per-task output in OrdKey order reproduces the serial executor's
// sequence — even when recursive splits carved a hot key's subtree into
// many tasks.
//
// The returned statistics are the merged driver + worker counters; for a
// run to completion they equal the serial executor's exactly, except the
// scheduling-dependent Splits and Steals counters (serially always 0).
func GenericJoinParallelMorsels(atoms []Atom, order []string, opts ParallelOpts, mkSink func(worker int) func(ord OrdKey, t relational.Tuple) bool) (*GenericJoinStats, error) {
	pos, byAttr, err := groupAtoms(atoms, order)
	if err != nil {
		return nil, err
	}
	if len(order) == 0 {
		// Degenerate nullary join: one empty tuple, no parallelism to
		// extract. Run it through the serial loop against sink 0.
		sink := mkSink(0)
		return GenericJoinStreamOpts(atoms, order, opts.StreamOpts, func(t relational.Tuple) bool {
			return sink(nil, t)
		})
	}

	workers := ResolveWorkers(opts.Workers)
	sopts := opts.StreamOpts
	if sopts.Cancel == nil {
		sopts.Cancel = new(atomic.Bool)
	}
	stop := sopts.Cancel
	sched := newStealScheduler(workers)
	gate := newDeadlineGate(opts.Deadline)
	var (
		errMu  sync.Mutex
		runErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if runErr == nil {
			runErr = err
		}
		errMu.Unlock()
		sched.halt(stop)
	}

	// The driver is a run that packs from its first key: it performs
	// exactly the serial executor's depth-0 work — the opens, one
	// intersection over the first attribute's cursors, batched when that
	// attribute is also the leaf — but packs the keys into root morsels
	// dealt round-robin across the worker deques instead of recursing.
	driverStats := &GenericJoinStats{Order: append([]string(nil), order...)}
	driverStats.allocLevels(len(order))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer sched.produceDone()
		d := newStreamRun(order, byAttr, pos, sopts, driverStats, nil)
		// Morsels start at one key (so small key spaces still fan out
		// across all workers) and grow geometrically as the run proves
		// long, amortizing queue overhead. The schedule is deterministic
		// for a fixed worker count.
		d.wantSplit, d.packSize = true, 1
		var idx int32
		d.spawn = func(_, keys []relational.Value) {
			sched.throttleProduce(stop)
			sched.push(int(idx)%workers, task{ord: OrdKey{idx}, keys: keys})
			idx++
			if int(idx)%(4*workers) == 0 && d.packSize < maxMorselSize {
				d.packSize *= 2
				// Clamp growth to the keys-per-worker seen so far: without
				// it a short first attribute rides out in a few oversized
				// tail morsels and leaves most workers idle from the start
				// (recursive splitting can repair that, but not for free).
				if perWorker := int(idx) / workers; d.packSize > perWorker {
					d.packSize = perWorker
				}
			}
		}
		// Panic isolation as in the workers: a panic in an atom's Open, a
		// lazy build or the leapfrog fails the run instead of crashing the
		// process, and the depth-0 cursors are still released exactly once.
		defer func() {
			if v := recover(); v != nil {
				fail(newPanicError(v))
				d.closeOpen()
			}
		}()
		if d.rec(0); d.openErr != nil {
			fail(d.openErr)
		}
	}()

	workerStats := make([]GenericJoinStats, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stats := &workerStats[w]
			stats.allocLevels(len(order))
			sink := mkSink(w)
			var curOrd OrdKey
			r := newStreamRun(order, byAttr, pos, sopts, stats, func(t relational.Tuple) bool {
				stats.Output++
				if !sink(curOrd, t) {
					stop.Store(true)
					return false
				}
				return true
			})
			var nextSub int32
			if workers > 1 {
				r.splitGate = sched.shouldSplit
				r.spawn = func(prefix, keys []relational.Value) {
					if err := faultpoint.Inject("wcoj.morsel.split"); err != nil {
						panic(err)
					}
					nextSub++
					sched.push(w, task{ord: curOrd.child(nextSub), prefix: prefix, keys: keys})
					sched.splits.Add(1)
				}
			}
			// runTask expands one claimed task. The defers run LIFO: a
			// panic anywhere in the expansion — an atom, a lazy build, the
			// sink — is recovered first (failing the run, raising the shared
			// stop flag, closing the cursors the recursion holds open so
			// pooled iterators return exactly once), and the scheduler
			// release runs second. A claimed task is therefore always
			// released, panic or not; a lost release would leave active
			// nonzero forever and deadlock every sibling parked in next().
			runTask := func(tk task) {
				defer sched.release()
				defer func() {
					if v := recover(); v != nil {
						fail(newPanicError(v))
						r.closeOpen()
					}
				}()
				if stop.Load() {
					return // drain: discard without running
				}
				if gate != nil {
					if gate.refuse() {
						// Deadline-aware stop: the remaining budget cannot
						// cover one more morsel, so end the whole run here —
						// siblings drain, the partial answer returns now.
						sched.halt(stop)
						return
					}
					defer gate.observeSince(time.Now())
				}
				if err := faultpoint.Inject("wcoj.morsel.dequeue"); err != nil {
					fail(err)
					return
				}
				curOrd, nextSub = tk.ord, 0
				r.wantSplit, r.sinceGate = false, 0
				r.openErr = nil
				depth := len(tk.prefix)
				for i, v := range tk.keys {
					if stop.Load() {
						break
					}
					r.binding = append(r.binding[:0], tk.prefix...)
					r.binding = append(r.binding, v)
					r.rec(depth + 1)
					if r.openErr != nil {
						fail(r.openErr)
						break
					}
					if r.wantSplit && r.spawn != nil && i+1 < len(tk.keys) {
						// Shed this task's own tail in one push: the keys
						// after i become a task ordered after every
						// sub-task key i's subtree just spawned (spawn
						// increments nextSub past them).
						r.spawn(tk.prefix, tk.keys[i+1:])
						break
					}
				}
			}
			// The outer recover is the backstop for a panic outside any
			// claimed task (sink construction, the scheduler itself): no
			// release is owed there, only failing the run so the driver
			// and siblings stop.
			defer func() {
				if v := recover(); v != nil {
					fail(newPanicError(v))
				}
			}()
			for {
				tk, ok := sched.next(w)
				if !ok {
					return
				}
				runTask(tk)
			}
		}(w)
	}
	wg.Wait()
	if runErr != nil {
		return nil, runErr
	}
	for w := range workerStats {
		driverStats.Merge(&workerStats[w])
	}
	driverStats.finalizeLevels()
	driverStats.Splits = int(sched.splits.Load())
	driverStats.Steals = int(sched.steals.Load())
	driverStats.DeadlineStops = gate.stopCount()
	return driverStats, nil
}

// GenericJoinParallelStreamOpts evaluates the join with the morsel-driven
// parallel executor, streaming every result tuple to yield without
// materializing any stage. yield is called concurrently from the worker
// goroutines (serialize externally if needed) with a transient tuple;
// returning false cancels the whole run. Tuple order is
// scheduling-dependent; use GenericJoinParallelOpts for deterministic
// output.
func GenericJoinParallelStreamOpts(atoms []Atom, order []string, opts ParallelOpts, yield func(relational.Tuple) bool) (*GenericJoinStats, error) {
	return GenericJoinParallelMorsels(atoms, order, opts, func(int) func(OrdKey, relational.Tuple) bool {
		return func(_ OrdKey, t relational.Tuple) bool { return yield(t) }
	})
}

// GenericJoinParallelOpts evaluates the join with the morsel-driven
// parallel executor and collects the result, reassembled in task order so
// tuples and statistics are identical to the serial executor's. It never
// materializes an intermediate stage — peak memory is the output plus
// O(workers·depth).
func GenericJoinParallelOpts(atoms []Atom, order []string, opts ParallelOpts) (*GenericJoinResult, error) {
	col := NewMorselCollector(ResolveWorkers(opts.Workers))
	stats, err := GenericJoinParallelMorsels(atoms, order, opts, func(w int) func(OrdKey, relational.Tuple) bool {
		return func(ord OrdKey, t relational.Tuple) bool {
			col.Add(w, ord, t)
			return true
		}
	})
	if err != nil {
		return nil, err
	}
	return &GenericJoinResult{Attrs: stats.Order, Tuples: col.Tuples(), Stats: *stats}, nil
}

// MorselCollector reassembles the tuples of a GenericJoinParallelMorsels
// run into the serial executor's order: each worker accumulates cloned
// tuples per task, and Tuples concatenates the chunks in OrdKey order.
// Callers that filter (validation, limits) decide per tuple whether to
// Add. Add is safe for concurrent use by *different* workers — state is
// worker-local — and relies on each worker's task OrdKeys arriving in
// contiguous runs (the sink contract); Tuples must only be called after
// the run finishes. The value is a handle: copies share one collection.
type MorselCollector struct {
	perWorker [][]taskChunk
}

// taskChunk is one task's collected tuples, tagged for reassembly.
type taskChunk struct {
	ord    OrdKey
	tuples []relational.Tuple
}

// NewMorselCollector sizes a collector for the resolved worker count.
func NewMorselCollector(workers int) MorselCollector {
	return MorselCollector{perWorker: make([][]taskChunk, workers)}
}

// Add records a clone of t as output of the task identified by ord, from
// the given worker.
func (c MorselCollector) Add(worker int, ord OrdKey, t relational.Tuple) {
	chunks := c.perWorker[worker]
	if len(chunks) == 0 || !chunks[len(chunks)-1].ord.equal(ord) {
		chunks = append(chunks, taskChunk{ord: ord})
		c.perWorker[worker] = chunks
	}
	last := &chunks[len(chunks)-1]
	last.tuples = append(last.tuples, t.Clone())
}

// Tuples returns every collected tuple in task order (nil when nothing
// was collected, matching the serial executors' empty result).
func (c MorselCollector) Tuples() []relational.Tuple {
	var all []taskChunk
	n := 0
	for _, chunks := range c.perWorker {
		if n += len(chunks); len(chunks) > 0 {
			all = chunks
		}
	}
	if n == 1 {
		// One task — every serial run — already is the output sequence.
		return all[0].tuples
	}
	all = make([]taskChunk, 0, n)
	for _, chunks := range c.perWorker {
		all = append(all, chunks...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ord.Less(all[j].ord) })
	var out []relational.Tuple
	for _, ch := range all {
		out = append(out, ch.tuples...)
	}
	return out
}
