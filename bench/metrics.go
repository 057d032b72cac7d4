package main

// The metric catalogue — every name the benchmark reports, with its unit,
// direction and (end-to-end only) regression bound — and the order
// statistics the latencies are summarised with. BENCHMARK.json declares the
// same names; TestCatalogueMatchesBenchmarkJSON keeps the two in step.

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, per workload, that
// BENCHMARK.json bounds. A run also reports attempted and failed op counts;
// their ratio is the issue's fail_share, which the result line carries as
// "failed"/"attempted" because a ratio that is 0 on a healthy run cannot
// take a relative bound. The bounds are the widest the benchmark contract
// allows: on the shared two-core box the suite is sized for, the quartile
// spread of ten runs reaches 10-20% when the host is busy (README.md has the
// observed values).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"first_row_p50_ms", "ms", "lower", 0.25},
}

// demoted are end-to-end metrics that could not hold a bound across sets of
// runs on that box (README.md records the values) and so, by the issue's
// rule, are per-layer metrics in BENCHMARK.json. The untraced run still
// measures them and the suite prints them; -compare does not judge them.
var demoted = []metricDef{
	{Name: "op_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "allocs_per_op", Unit: "count", Better: "lower"},
}

// perLayer lists the metrics of the traced run, "<package>.<metric>". A metric
// whose name ends in _ms or _us and has no explicit value is the median
// duration of the spans named like it without the suffix. A layer that does
// no work on a workload reports 0 there.
var perLayer = func() []metricDef {
	var out []metricDef
	add := func(better string, unit string, names ...string) {
		for _, n := range names {
			u := unit
			if u == "" {
				u = n[strings.LastIndexByte(n, '_')+1:]
			}
			out = append(out, metricDef{Name: n, Unit: u, Better: better})
		}
	}
	add("lower", "", "twig.parse_us", "mmql.parse_us", "mmql.prepare_ms", "mmql.execute_ms", "mmql.residual_ms",
		"core.plan_ms", "core.bounds_ms", "core.xjoin_ms", "core.stream_ms", "core.materialize_ms",
		"core.hybrid_ms", "core.baseline_ms")
	add("lower", "count", "core.validation_removed", "core.peak_intermediate_rows", "core.total_intermediate_rows")
	add("lower", "ratio", "core.stage_bound_ratio_max")
	add("lower", "", "xmldb.load_ms", "xmldb.index_build_ms", "structix.build_ms")
	add("lower", "bytes", "structix.build_bytes")
	add("lower", "", "structix.ad_open_us")
	add("lower", "count", "structix.ad_open_allocs", "structix.ad_values_per_open")
	add("lower", "", "wcoj.table_index_build_ms")
	add("lower", "bytes", "wcoj.table_index_bytes")
	add("lower", "", "wcoj.table_open_us", "wcoj.join_ms", "wcoj.join_parallel2_ms")
	add("higher", "ratio", "wcoj.parallel_speedup")
	add("lower", "count", "wcoj.seeks", "wcoj.intersections")
	add("lower", "ratio", "wcoj.seeks_per_row")
	add("lower", "count", "wcoj.leaf_batches", "wcoj.morsel_splits", "wcoj.morsel_steals", "wcoj.deadline_stops")
	add("lower", "", "wcoj.hash_join_ms")
	add("higher", "count", "catalog.hits")
	add("lower", "count", "catalog.misses", "catalog.evictions")
	add("lower", "bytes", "catalog.resident_bytes")
	add("lower", "count", "catalog.entries")
	add("lower", "", "xmjoin.query_assemble_ms", "xmjoin.prepare_ms", "xmjoin.execute_ms", "xmjoin.stream_ms",
		"xmjoin.decode_ms", "xmjoin.rows_cursor_ms")
	add("higher", "count", "xmjoin.rows_per_op")
	add("lower", "", "server.exec_ms", "server.overhead_ms", "server.encode_ms")
	add("lower", "bytes", "server.response_bytes")
	add("higher", "count", "server.prep_hits")
	add("lower", "count", "server.prep_misses", "server.prep_entries")
	add("higher", "count", "server.admitted")
	add("lower", "count", "server.rejected")
	add("lower", "ratio", "server.cancelled_share")
	add("higher", "count", "server.partial_rows_p50")
	add("lower", "ms", "server.deadline_overshoot_p50_ms")
	add("lower", "kb", "runtime.alloc_kb_per_op")
	add("lower", "count", "runtime.gc_cycles")
	add("lower", "ms", "runtime.gc_pause_ms")
	add("lower", "mb", "runtime.heap_peak_mb")
	add("lower", "count", "runtime.goroutines_end")
	add("lower", "ratio", "trace.overhead_share")
	return append(out, demoted...)
}()

// layerValues fills every per-layer metric: an explicit value if the
// workload supplied one, else the median duration of the like-named spans,
// else 0.
func layerValues(explicit, spanNS map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		v, ok := explicit[m.Name]
		if !ok {
			switch {
			case strings.HasSuffix(m.Name, "_ms"):
				v = spanNS[strings.TrimSuffix(m.Name, "_ms")] / 1e6
			case strings.HasSuffix(m.Name, "_us"):
				v = spanNS[strings.TrimSuffix(m.Name, "_us")] / 1e3
			}
		}
		out[m.Name] = v
	}
	return out
}

// minTailSamples is how many samples must lie beyond a reported percentile.
const minTailSamples = 10

// percentile returns the p-th percentile (0 < p < 100) of sorted by the
// nearest-rank rule. It refuses a percentile with fewer than minTailSamples
// samples beyond it: p95 needs 200 samples, p50 needs 20.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	if beyond := int(math.Floor(float64(n) * (100 - p) / 100)); beyond < minTailSamples {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, beyond, minTailSamples)
	}
	return sorted[int(math.Ceil(float64(n)*p/100))-1], nil
}

// median is the plain middle of sorted, for any non-empty sample size (span
// medians, set-up repetitions); 0 for none.
func median(sorted []float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func sortedCopy(v []float64) []float64 {
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	return c
}

// millis converts durations to sorted milliseconds.
func millis(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = float64(x) / 1e6
	}
	sort.Float64s(out)
	return out
}
