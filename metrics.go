package xmjoin

import (
	"io"
	"reflect"
	"time"

	"repro/internal/obs"
)

// Trace records one query's execution as a tree of timed spans — parse
// (mmql), plan/order selection, every lazy index build admitted under the
// run, and execution with per-level join counters. Attach one with
// Query.WithTrace or ExecOptions.Trace, run the query, then call Finish
// and Render (or use mmql's EXPLAIN ANALYZE, which does all of that).
// A nil *Trace disables tracing at the cost of one pointer test per
// execution phase — never per tuple — so serving paths leave it nil.
type Trace = obs.Trace

// NewTrace starts a trace labeled for later rendering and the slow-query
// log.
func NewTrace(label string) *Trace { return obs.NewTrace(label) }

// MetricsRegistry is the process-lifetime metrics registry every
// execution folds its Stats into: counters for per-run deltas, gauges for
// end-of-run snapshots, and a histogram of query wall times. Render it
// in Prometheus text exposition format with its Write method, or serve
// it over HTTP (see cmd/xjoin's and cmd/xmsh's -metrics flag).
type MetricsRegistry = obs.Registry

// SlowLog is the bounded ring buffer of queries slower than a threshold;
// every Database owns one (see Database.SlowLog).
type SlowLog = obs.SlowLog

// SlowEntry is one slow-query record: label, wall time, output size and
// the run's error, if any.
type SlowEntry = obs.SlowEntry

// WriteMetrics renders the default registry — the one every Database
// reports into unless redirected with UseMetricsRegistry — in Prometheus
// text exposition format (version 0.0.4).
func WriteMetrics(w io.Writer) error { return obs.WriteMetrics(w) }

// defaultSlowThreshold is the slow-query log's initial threshold; tune it
// per database with SlowLog().SetThreshold.
const defaultSlowThreshold = 250 * time.Millisecond

// statExport maps one numeric core.Stats field to its registry metric.
// Counter exports accumulate per-run deltas; gauge exports overwrite with
// the run's end-of-run snapshot (the right shape for the cumulative
// catalog counters and the resident-size fields, which are already
// process-lifetime values). TestStatsExportsCoverAllFields pins this
// table to the Stats struct: adding a numeric field without an export
// line fails the build's tests.
type statExport struct {
	field string // core.Stats field name
	name  string // registry metric name
	help  string
	gauge bool // snapshot (Set) instead of per-run delta (Add)
}

var statsExports = []statExport{
	{"Output", "xmjoin_output_tuples_total", "Validated answer tuples produced across all runs.", false},
	{"ValidationRemoved", "xmjoin_validation_removed_total", "Tuples discarded by final structural validation across all runs.", false},
	{"TotalIntermediate", "xmjoin_intermediate_tuples_total", "Materialized intermediate tuples summed over all stages and runs.", false},
	{"PeakIntermediate", "xmjoin_last_peak_intermediate", "Largest materialized collection of the most recent run.", true},
	{"Q1Size", "xmjoin_last_baseline_q1_size", "Relational-part result size of the most recent baseline run.", true},
	{"Q2Size", "xmjoin_last_baseline_q2_size", "XML-part result size of the most recent baseline run.", true},
	{"LeafBatches", "xmjoin_leaf_batches_total", "Key vectors delivered by the batched leaf-level loop across all runs.", false},
	{"MorselSplits", "xmjoin_morsel_splits_total", "Sub-morsels re-queued by splitting running tasks across all runs.", false},
	{"MorselSteals", "xmjoin_morsel_steals_total", "Tasks claimed from another worker's deque across all runs.", false},
	{"DeadlineStops", "xmjoin_deadline_stops_total", "Morsels refused by the deadline-aware scheduler across all runs.", false},
	{"BinarySubplans", "xmjoin_last_binary_subplans", "Materialized binary hash-join subplans of the most recent hybrid run.", true},
	{"BinaryIntermediate", "xmjoin_binary_intermediate_tuples_total", "Intermediate tuples materialized by binary hash-join subplans across all runs.", false},
	{"TableIndexes", "xmjoin_table_indexes", "Sorted-column index shapes held by the last run's table atoms.", true},
	{"TableIndexBytes", "xmjoin_table_index_bytes", "Approximate heap bytes of the last run's table indexes.", true},
	{"StructIndexes", "xmjoin_struct_indexes", "Structures (tag runs, P-C pair tables, A-D projections, nesting depths) of the document indexes behind the last run's lazy A-D atoms.", true},
	{"StructIndexBytes", "xmjoin_struct_index_bytes", "Approximate heap bytes of the document indexes behind the last run's lazy A-D atoms.", true},
	{"CatalogHits", "xmjoin_catalog_hits", "Cumulative shared-catalog hits as of the last run.", true},
	{"CatalogMisses", "xmjoin_catalog_misses", "Cumulative shared-catalog misses (index builds) as of the last run.", true},
	{"CatalogEvictions", "xmjoin_catalog_evictions", "Cumulative shared-catalog evictions as of the last run.", true},
	{"CatalogResidentBytes", "xmjoin_catalog_resident_bytes", "Catalog bytes resident against the budget as of the last run.", true},
	{"CatalogEntries", "xmjoin_catalog_entries", "Catalog entries resident as of the last run.", true},
}

// dbMetrics caches the registry handles one Database reports into, so
// observeRun pays map lookups only on the first run after NewDatabase or
// UseMetricsRegistry.
type dbMetrics struct {
	reg          *obs.Registry
	querySeconds *obs.Histogram
	errors       *obs.Counter
	cancelled    *obs.Counter
	internal     *obs.Counter
	degraded     *obs.Counter
	slow         *obs.Counter
	counters     []*obs.Counter // parallel to statsExports (nil for gauges)
	gauges       []*obs.Gauge   // parallel to statsExports (nil for counters)
}

func newDBMetrics(r *obs.Registry) *dbMetrics {
	m := &dbMetrics{
		reg:          r,
		querySeconds: r.Histogram("xmjoin_query_seconds", "Query wall time, all algorithms."),
		errors:       r.Counter("xmjoin_query_errors_total", "Runs that returned a non-nil error."),
		cancelled:    r.Counter("xmjoin_queries_cancelled_total", "Runs abandoned by context cancellation or deadline."),
		internal:     r.Counter("xmjoin_queries_internal_total", "Runs aborted by a recovered engine panic."),
		degraded:     r.Counter("xmjoin_queries_degraded_total", "Runs that fell back to the post-hoc shape under budget pressure."),
		slow:         r.Counter("xmjoin_slow_queries_total", "Runs slower than the database's slow-query threshold."),
		counters:     make([]*obs.Counter, len(statsExports)),
		gauges:       make([]*obs.Gauge, len(statsExports)),
	}
	for i, ex := range statsExports {
		if ex.gauge {
			m.gauges[i] = r.Gauge(ex.name, ex.help)
		} else {
			m.counters[i] = r.Counter(ex.name, ex.help)
		}
	}
	return m
}

// Metrics returns the registry this database reports into — the shared
// obs default unless UseMetricsRegistry redirected it. Render it with
// Write, or let WriteMetrics / the commands' -metrics listener serve the
// default.
func (db *Database) Metrics() *MetricsRegistry {
	db.obsMu.Lock()
	defer db.obsMu.Unlock()
	if db.reg == nil {
		db.reg = obs.Default
	}
	return db.reg
}

// UseMetricsRegistry redirects this database's metric exports to r
// (nil restores the shared default registry) — for tests and for
// processes hosting several databases that want them told apart.
func (db *Database) UseMetricsRegistry(r *MetricsRegistry) {
	db.obsMu.Lock()
	defer db.obsMu.Unlock()
	if r == nil {
		r = obs.Default
	}
	db.reg = r
	db.met = nil
}

// SlowLog returns the database's slow-query log: a bounded ring of the
// most recent runs slower than its threshold (initially 250ms; 0
// disables). Safe for concurrent use.
func (db *Database) SlowLog() *SlowLog {
	db.obsMu.Lock()
	defer db.obsMu.Unlock()
	if db.slow == nil {
		db.slow = obs.NewSlowLog(defaultSlowThreshold, 128)
	}
	return db.slow
}

func (db *Database) metricsHandles() *dbMetrics {
	db.obsMu.Lock()
	defer db.obsMu.Unlock()
	if db.reg == nil {
		db.reg = obs.Default
	}
	if db.met == nil || db.met.reg != db.reg {
		db.met = newDBMetrics(db.reg)
	}
	return db.met
}

// observeRun folds one finished execution into the database's registry
// and slow-query log. st is nil only for runs that failed before any
// statistics existed (plan errors); those still count as queries and
// errors. Runs per query, never per tuple.
func (db *Database) observeRun(label string, start time.Time, st *Stats, err error) {
	elapsed := time.Since(start)
	m := db.metricsHandles()
	algo := "none"
	if st != nil && st.Algorithm != "" {
		algo = st.Algorithm
	}
	m.reg.Counter("xmjoin_queries_total", "Executions by algorithm.", obs.Label{Key: "algo", Value: algo}).Inc()
	m.querySeconds.Observe(elapsed.Seconds())
	if err != nil {
		m.errors.Inc()
	}
	output := 0
	if st != nil {
		output = st.Output
		if st.Cancelled {
			m.cancelled.Inc()
		}
		if st.Internal {
			m.internal.Inc()
		}
		if st.Degraded != "" {
			m.degraded.Inc()
		}
		v := reflect.ValueOf(*st)
		for i, ex := range statsExports {
			n := v.FieldByName(ex.field).Int()
			if ex.gauge {
				m.gauges[i].Set(n)
			} else {
				m.counters[i].Add(n)
			}
		}
	}
	if db.SlowLog().Observe(label, elapsed, output, err) {
		m.slow.Inc()
	}
}
