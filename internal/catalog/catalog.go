// Package catalog is the process-lifetime index catalog: one shared,
// budgeted home for every lazily built access-path structure the
// multi-model join engine uses, so a serving process pays index cost once
// across queries instead of once per XJoin call.
//
// A Catalog owns two kinds of sources, each created empty on first request
// and reused by every later query over the same table or document:
//
//   - one wcoj.TableAtom per relational table (its sorted-column index
//     runs, one per (target, bound-set) shape);
//   - one structix.Index per document (its tag runs, P-C pair tables, A-D
//     projections and nesting depths).
//
// Creating a source builds nothing. The lazily built entries inside the
// sources register themselves here through the cachehook protocol as they
// are built. The catalog tracks their approximate resident bytes against a
// configurable budget and evicts the least-recently-touched entries when
// over it. Eviction only removes an entry from its owner's map: in-flight
// joins keep their direct references (entries are immutable), and the next
// lookup rebuilds lazily — correctness never depends on residency, only
// cost does.
//
// Counters: a miss is any build (source wrapper or lazy entry), a hit is
// any reuse (source lookup or entry resolution). They are cumulative for the
// catalog's lifetime; core.Stats snapshots them after each run, so "a warm
// run did zero index-build work" is exactly "CatalogMisses unchanged".
//
// All methods are safe for concurrent use; the morsel-parallel executor's
// workers and concurrent PreparedQuery.Execute calls share one catalog.
package catalog

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/cachehook"
	"repro/internal/relational"
	"repro/internal/wcoj"
	"repro/internal/xmldb"
	"repro/internal/xmldb/structix"
)

// Catalog is a shared, budgeted registry of index structures. The zero
// value is not usable; call New.
type Catalog struct {
	budget    atomic.Int64 // bytes; <= 0 means unlimited
	clock     atomic.Uint64
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64

	// mu guards the entry set and resident-byte accounting.
	mu       sync.Mutex
	resident int64
	entries  map[*ticket]struct{}

	// srcMu guards the source maps. Separate from mu so source lookups
	// never block entry registration or eviction.
	srcMu  sync.Mutex
	tables map[*relational.Table]*wcoj.TableAtom
	docs   map[*xmldb.Document]*structix.Index
}

// New returns an empty catalog with the given byte budget for lazily built
// entries (<= 0 = unlimited).
func New(budgetBytes int64) *Catalog {
	c := &Catalog{
		entries: make(map[*ticket]struct{}),
		tables:  make(map[*relational.Table]*wcoj.TableAtom),
		docs:    make(map[*xmldb.Document]*structix.Index),
	}
	c.budget.Store(budgetBytes)
	return c
}

// TableAtom returns the catalog's shared atom for t, creating and
// registering it on first request. All queries over t borrow the same atom,
// so its sorted-column indexes are built once per shape process-wide.
func (c *Catalog) TableAtom(t *relational.Table) *wcoj.TableAtom {
	c.srcMu.Lock()
	a, ok := c.tables[t]
	if !ok {
		a = wcoj.NewTableAtom(t)
		a.SetCacheObserver(c)
		c.tables[t] = a
	}
	c.srcMu.Unlock()
	c.countSource(ok)
	return a
}

// StructIndex returns the catalog's shared index for doc, creating an
// empty (all-lazy) one on first request.
func (c *Catalog) StructIndex(doc *xmldb.Document) *structix.Index {
	c.srcMu.Lock()
	ix, ok := c.docs[doc]
	if !ok {
		ix = structix.New(doc)
		ix.SetCacheObserver(c)
		c.docs[doc] = ix
	}
	c.srcMu.Unlock()
	c.countSource(ok)
	return ix
}

// Indexes returns the same shared index as StructIndex: one structix.Index
// holds all of a document's value-level and structural indexes.
func (c *Catalog) Indexes(doc *xmldb.Document) *structix.Index { return c.StructIndex(doc) }

func (c *Catalog) countSource(hit bool) {
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
}

// SetBudget changes the byte budget (<= 0 = unlimited) and immediately
// evicts down to it if the resident entries exceed the new value.
func (c *Catalog) SetBudget(bytes int64) {
	c.budget.Store(bytes)
	c.evictOver(nil)
}

// Budget returns the current byte budget (<= 0 = unlimited).
func (c *Catalog) Budget() int64 { return c.budget.Load() }

// Admit implements cachehook.Admitter: it rejects a lazily built entry
// whose estimated footprint alone exceeds the whole budget, wrapping
// cachehook.ErrBudgetExceeded so callers can degrade (e.g. fall back from
// lazy to post-hoc A-D filtering) instead of building an index that would
// immediately thrash every other resident entry. Entries that fit the
// budget individually are always admitted — eviction handles aggregate
// pressure — so admission never rejects what eviction could accommodate.
func (c *Catalog) Admit(label string, bytes int64) error {
	if budget := c.budget.Load(); budget > 0 && bytes > budget {
		return fmt.Errorf("catalog: %s (~%dB) exceeds budget %dB: %w",
			label, bytes, budget, cachehook.ErrBudgetExceeded)
	}
	return nil
}

// Stats is a snapshot of the catalog's counters.
type Stats struct {
	// Hits counts reuses: source lookups that found an existing shared
	// structure plus resolutions of resident lazily built entries (runs
	// resolve each structure they read once).
	Hits int64
	// Misses counts builds: new source wrappers plus lazily built entries.
	Misses int64
	// Evictions counts entries dropped to satisfy the byte budget.
	Evictions int64
	// ResidentBytes is the approximate heap held by the tracked entries.
	ResidentBytes int64
	// Entries is the number of tracked resident entries.
	Entries int
	// Budget is the configured byte budget (<= 0 = unlimited).
	Budget int64
}

// Stats returns a snapshot of the catalog's counters.
func (c *Catalog) Stats() Stats {
	c.mu.Lock()
	resident, entries := c.resident, len(c.entries)
	c.mu.Unlock()
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		ResidentBytes: resident,
		Entries:       entries,
		Budget:        c.budget.Load(),
	}
}

// String renders the snapshot for the shell and CLI stats output.
func (s Stats) String() string {
	budget := "unlimited"
	if s.Budget > 0 {
		budget = fmt.Sprintf("%d", s.Budget)
	}
	return fmt.Sprintf("catalog: entries=%d resident=%dB budget=%s hits=%d misses=%d evictions=%d",
		s.Entries, s.ResidentBytes, budget, s.Hits, s.Misses, s.Evictions)
}

// ticket is one tracked resident entry. last is the LRU recency stamp
// (catalog clock ticks); dead flips once, when the entry is evicted.
type ticket struct {
	c     *Catalog
	label string
	bytes int64
	drop  func()
	last  atomic.Uint64
	dead  atomic.Bool
}

// Touch implements cachehook.Ticket: an atomic recency stamp plus the hit
// counter — no locks, every warm lookup of an entry calls it.
func (t *ticket) Touch() {
	if t.dead.Load() {
		return
	}
	t.last.Store(t.c.clock.Add(1))
	t.c.hits.Add(1)
}

// Built implements cachehook.Observer: it registers the entry, counts the
// build as a miss, and evicts least-recently-touched entries while the
// resident total exceeds the budget. The drop callbacks run after the
// catalog lock is released (they take owner locks), which is why owners
// must not call Built while holding those locks.
func (c *Catalog) Built(label string, bytes int64, drop func()) cachehook.Ticket {
	t := &ticket{c: c, label: label, bytes: bytes, drop: drop}
	t.last.Store(c.clock.Add(1))
	c.misses.Add(1)
	c.mu.Lock()
	c.entries[t] = struct{}{}
	c.resident += bytes
	c.mu.Unlock()
	c.evictOver(t)
	return t
}

// evictOver drops least-recently-touched entries until the resident total
// fits the budget. keep (the entry just built, when called from Built) is
// never chosen, so a single over-budget entry does not thrash on every use;
// the budget is a target, not a hard cap. Victims are picked in one pass —
// the candidate set is snapshotted and sorted by recency stamp once, so a
// mass eviction (a SetBudget shrink over a wide workload) costs
// O(n log n), not a rescan per victim — collected under the catalog lock
// and dropped outside it.
func (c *Catalog) evictOver(keep *ticket) {
	budget := c.budget.Load()
	if budget <= 0 {
		return
	}
	var victims []*ticket
	c.mu.Lock()
	if c.resident > budget {
		cands := make([]*ticket, 0, len(c.entries))
		for t := range c.entries {
			if t != keep {
				cands = append(cands, t)
			}
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i].last.Load() < cands[j].last.Load() })
		for _, t := range cands {
			if c.resident <= budget {
				break
			}
			t.dead.Store(true)
			delete(c.entries, t)
			c.resident -= t.bytes
			c.evictions.Add(1)
			victims = append(victims, t)
		}
	}
	c.mu.Unlock()
	for _, t := range victims {
		t.drop()
	}
}
