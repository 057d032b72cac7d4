// Package cachehook is the one implementation of the lazy-index protocol
// shared by every access structure under the atoms (wcoj.TableAtom's sorted
// projections; structix.Index's tag runs, P-C pair tables, A-D projections
// and nesting depths) and the contract between them and a
// process-lifetime cache manager such as internal/catalog. An owner declares
// a Slots map per kind of structure, names its fault point, and says per Get
// only what differs: a label, an optional size estimate, and how to build.
// The manager knows the byte budget and the eviction policy. Owners never
// import the catalog and the catalog never learns the owners' internals.
//
// Protocol, as Slots.Get runs it:
//
//   - The slot for a key is installed under the Slots mutex; the build runs
//     outside it behind the slot's retryable BuildOnce, so concurrent
//     requesters of one key run one build and builds of different keys never
//     wait on each other.
//   - Inside the once, in order: the fault point fires; the run's Admitter,
//     when the owner gave an estimate, may refuse (ErrBudgetExceeded); the
//     build polls the run's cancellation probe (ErrBuildCancelled); the
//     BuildControl.Built span is reported; Observer.Built registers the
//     entry's bytes and a drop callback and returns a Ticket. Any error or
//     panic before that point leaves the slot unbuilt and unregistered, and
//     the next Get retries.
//   - Observer.Built is called with no Slots mutex held — only the new
//     slot's own once — because the manager may evict synchronously inside
//     it, and the victims' drop callbacks take the mutex of their Slots,
//     possibly this one.
//   - Every later Get of the resident entry is a reuse and stamps the
//     Ticket, the LRU recency signal. Callers resolve a structure once per
//     run and keep it for the run's uses, so one stamp stands for all of
//     them and no Open path reaches the Slots.
//   - The manager evicts by invoking the drop callback, which removes the
//     slot iff it is still the resident one for its key (a rebuilt successor
//     survives). Drops are safe while joins run: values are immutable and
//     readers hold direct references that stay valid after the slot leaves
//     the map — the next Get simply rebuilds.
//
// Managers must tolerate Touch on entries they already dropped.
package cachehook

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultpoint"
)

// ErrBuildCancelled reports that a lazy index build observed its run's
// cancellation probe and abandoned the build. The partially built
// structure is discarded and the cache slot stays unbuilt, so the next
// caller rebuilds from scratch. Executors absorb this sentinel as a stop
// signal rather than surfacing it: the run then ends with whatever caused
// the stop (context cancellation, a sibling failure, a satisfied limit).
var ErrBuildCancelled = errors.New("cachehook: index build cancelled")

// ErrBudgetExceeded reports that an admission probe refused a build whose
// estimated footprint alone exceeds the manager's whole byte budget.
// Callers with a cheaper fallback (e.g. core degrading a lazy A-D index
// to post-hoc validation) should degrade for the run instead of evicting
// hot entries to admit a one-shot giant index.
var ErrBudgetExceeded = errors.New("cachehook: index build exceeds cache budget")

// Admitter is implemented by cache managers that can refuse a build
// before it runs. Slots consults it with the owner's size estimate; a
// returned error (wrapping ErrBudgetExceeded) means the entry must not be
// built or registered.
type Admitter interface {
	// Admit reports whether an entry of approximately bytes heap bytes may
	// be built. label names the entry for diagnostics.
	Admit(label string, bytes int64) error
}

// BuildControl carries per-run controls into the lazy index builds a run
// triggers. The zero value disables all probes.
type BuildControl struct {
	// Check, when non-nil, reports whether the run was cancelled; builds
	// poll it every ~1024 nodes/rows and abandon with ErrBuildCancelled.
	Check func() bool
	// Admit, when non-nil, is consulted with a size estimate before an
	// expensive build; a non-nil result aborts with ErrBudgetExceeded.
	Admit Admitter
	// Built, when non-nil, is told about each completed build: the entry's
	// diagnostic label, its approximate heap bytes, and the build's wall
	// time. Tracing uses this to attach build spans; the disabled path
	// costs a build one nil test and no clock read.
	Built func(label string, bytes int64, elapsed time.Duration)
}

// BuildOnce is a retryable variant of sync.Once for lazy cache entries:
// a build that returns an error or panics leaves the slot unbuilt, so the
// next caller retries instead of finding a poisoned Once wedged on a nil
// entry forever. Concurrent callers serialize on a mutex; after the first
// success, Do is a single atomic load.
type BuildOnce struct {
	mu   sync.Mutex
	done atomic.Bool
}

// Do runs build unless a previous call already succeeded. It returns
// (true, nil) when this call performed the build, (false, nil) when the
// entry was already built, and (false, err) when build failed — in which
// case the slot stays unbuilt and a later Do retries. A panic in build
// propagates and likewise leaves the slot retryable.
func (o *BuildOnce) Do(build func() error) (built bool, err error) {
	if o.done.Load() {
		return false, nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.done.Load() {
		return false, nil
	}
	if err := build(); err != nil {
		return false, err
	}
	o.done.Store(true)
	return true, nil
}

// Done reports whether some Do call completed successfully.
func (o *BuildOnce) Done() bool { return o.done.Load() }

// Observer receives build notifications from cache-entry owners. An
// implementation must be safe for concurrent use.
type Observer interface {
	// Built registers a newly built entry: label names it for diagnostics,
	// bytes is its approximate heap footprint, and drop removes it from the
	// owner when the manager decides to evict. The returned ticket is never
	// nil.
	Built(label string, bytes int64, drop func()) Ticket
}

// Ticket is the owner's handle on one registered entry.
type Ticket interface {
	// Touch records a reuse of the entry (the LRU recency signal). Safe to
	// call concurrently and after the entry was dropped.
	Touch()
}

// Spec is what differs from one lazily built structure to the next; Slots
// supplies everything else. Its functions run only when a build does, so a
// Spec costs a warm Get nothing but its construction on the stack.
type Spec[V any] struct {
	// Label names the entry for the build span, the admitter and the
	// observer.
	Label func() string
	// Estimate, when non-nil, sizes the structure before it is built; the
	// run's Admitter may then refuse the build.
	Estimate func() int64
	// Build constructs the value, polling check (nil: never cancelled) every
	// ~1024 nodes/rows.
	Build func(check func() bool) (V, error)
	// Bytes reports a built value's approximate heap footprint.
	Bytes func(V) int64
}

type slot[V any] struct {
	once BuildOnce
	// v, bytes and ticket are written inside once and immutable after it.
	v      V
	bytes  int64
	ticket Ticket
}

// reused stamps the ticket of a resident slot.
func (sl *slot[V]) reused() {
	if sl.ticket != nil {
		sl.ticket.Touch()
	}
}

// Slots is one owner's map of lazily built, build-once, evictable values.
// The zero value is ready to use and safe for concurrent use.
type Slots[K comparable, V any] struct {
	// Fault names the faultpoint fired before every build. Observer, when
	// non-nil, is the manager told of builds and reuses. Set both before
	// the Slots is shared — they are not synchronized against Get. (Fault
	// is not a Spec field on purpose: the registry keeps the name, and a
	// Spec with one field flowing to the heap would have its closures
	// heap-allocated on every warm Get.)
	Fault    string
	Observer Observer

	mu sync.Mutex
	m  map[K]*slot[V]
}

// Get returns the value for key, building it on first use (or after an
// eviction) as the package comment describes. All callers observe the same
// value until it is evicted. A warm Get stamps the entry's recency and never
// fails; a failed build returns V's zero value and leaves the slot
// retryable.
func (s *Slots[K, V]) Get(key K, ctl BuildControl, spec Spec[V]) (V, error) {
	s.mu.Lock()
	sl, ok := s.m[key]
	if !ok {
		if s.m == nil {
			s.m = make(map[K]*slot[V])
		}
		sl = new(slot[V])
		s.m[key] = sl
	}
	s.mu.Unlock()
	if sl.once.Done() {
		sl.reused()
	} else if err := s.build(sl, key, ctl, spec); err != nil {
		var zero V
		return zero, err
	}
	return sl.v, nil
}

// build is Get's cold path, kept out of line so a warm Get creates no
// closure.
func (s *Slots[K, V]) build(sl *slot[V], key K, ctl BuildControl, spec Spec[V]) error {
	built, err := sl.once.Do(func() error {
		if err := faultpoint.Inject(s.Fault); err != nil {
			return err
		}
		label := spec.Label()
		if ctl.Admit != nil && spec.Estimate != nil {
			if err := ctl.Admit.Admit(label, spec.Estimate()); err != nil {
				return err
			}
		}
		var t0 time.Time
		if ctl.Built != nil {
			t0 = time.Now()
		}
		v, err := spec.Build(ctl.Check)
		if err != nil {
			return err
		}
		bytes := spec.Bytes(v)
		sl.v, sl.bytes = v, bytes
		if ctl.Built != nil {
			ctl.Built(label, bytes, time.Since(t0))
		}
		if s.Observer != nil {
			sl.ticket = s.Observer.Built(label, bytes, func() { s.drop(key, sl) })
		}
		return nil
	})
	if err == nil && !built {
		sl.reused() // another caller's build finished while this one waited
	}
	return err
}

// drop is the manager's eviction callback for one slot.
func (s *Slots[K, V]) drop(key K, sl *slot[V]) {
	s.mu.Lock()
	if s.m[key] == sl {
		delete(s.m, key)
	}
	s.mu.Unlock()
}

// Peek returns the resident value for key without building, touching or
// waiting on anything; ok is false while it is not built.
func (s *Slots[K, V]) Peek(key K) (v V, ok bool) {
	s.mu.Lock()
	sl := s.m[key]
	s.mu.Unlock()
	if sl == nil || !sl.once.Done() {
		return v, false
	}
	return sl.v, true
}

// Each calls fn for every built value with its reported bytes, under the
// Slots mutex; values whose build is still in flight are skipped.
func (s *Slots[K, V]) Each(fn func(key K, v V, bytes int64)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, sl := range s.m {
		if sl.once.Done() {
			fn(k, sl.v, sl.bytes)
		}
	}
}
