package main

// The runner: workload table, closed-loop op phases, the untraced run that
// yields the end-to-end metrics and the separate traced run that yields the
// per-layer ones.

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// instance is one workload set up and ready to run.
type instance interface {
	// op runs the workload's i-th operation and checks its output. With a
	// non-nil tracer it records spans around its calls into each layer.
	op(tr *tracer, i int) error
	// firstRow runs the i-th first-row probe and returns the time from the
	// call to the first answer row.
	firstRow(i int) (time.Duration, error)
	// substitute re-runs op i's inputs through each inner layer's entry
	// point, recording the calls as child spans of op i's spans. It runs on
	// one goroutine, after the traced ops.
	substitute(tr *tracer, i int) error
	// counters snapshots the cumulative counters of the layers under the
	// workload; the runner reports their change over the measured phase.
	counters() map[string]float64
	// verify checks that change after ops measured operations.
	verify(delta map[string]float64, ops int) error
	// layers returns the per-layer values substitute gathered explicitly.
	layers() map[string]float64
	close() error
}

type workload struct {
	name    string
	why     string
	clients int // closed-loop callers
	ops     int // measured ops when the run is sized by count, not time
	probes  int // first-row probes after the ops
	setup   func(seed int64) (instance, error)
}

var workloads = []workload{
	{"paper_fig3_cold", "the paper's Figure 3 join on a fresh query: index builds, planning and validation are paid every op", 1, 400, 100, setupFig3Cold},
	{"twig_ad_warm", "warm prepared twig query: structix A-D opens dominate, no build, parse or server work", 1, 300, 2000, setupTwigWarm},
	{"rel_cyclic_warm", "warm cyclic relational join: the wcoj kernel and table cursors do all the work, no XML layer", 1, 300, 2000, setupCyclicWarm},
	{"serve_warm", "the twig_ad_warm query over HTTP with prepared-cache hits: the difference is the serving tax", 2, 400, 200, setupServeWarm},
	{"serve_cold_limit", "LIMIT 5 statements that always miss the prepared cache: HTTP, parse, prepare and planning dominate", 2, 20000, 400, setupServeColdLimit},
	{"serve_deadline", "a 180 ms grid join under a 5 ms deadline: how late a partial answer returns", 1, 250, 100, setupServeDeadline},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	setupReps = 5  // set-ups per untraced run at least; setup_s is their median
	warmOps   = 4  // untimed ops per client before a measured phase
	slices    = 10 // an untraced run alternates this many slices of ops and of probes
	minTimed  = 40 // ops a time-sized run measures at least: four to a slice
)

// budget sizes a phase by op count or, when dur is set, by wall time with a
// floor of min ops.
type budget struct {
	ops int
	dur time.Duration
	min int
}

// slice is one of the slices of an untraced run's budget.
func (b budget) slice() budget {
	return budget{ops: (b.ops + slices - 1) / slices, dur: b.dur / slices, min: (b.min + slices - 1) / slices}
}

func (b budget) done(i int, start time.Time) bool {
	if b.dur > 0 {
		return i >= b.min && time.Since(start) >= b.dur
	}
	return i >= b.ops
}

type phase struct {
	lat    []time.Duration // latency of each correct op
	failed []error
	wall   time.Duration
}

func (p phase) ops() int { return len(p.lat) + len(p.failed) }

// runOps drives fn in a closed loop from the given number of callers, each
// starting its next op when the previous one returned. Op indexes start at
// first and are handed out in order.
func runOps(clients int, b budget, first int, fn func(i int) error) phase {
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		next atomic.Int64
		p    phase
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat []time.Duration
			var failed []error
			for {
				i := int(next.Add(1)) - 1
				if b.done(i, start) {
					break
				}
				t0 := time.Now()
				if err := fn(first + i); err != nil {
					failed = append(failed, fmt.Errorf("op %d: %w", first+i, err))
				} else {
					lat = append(lat, time.Since(t0))
				}
			}
			mu.Lock()
			p.lat = append(p.lat, lat...)
			p.failed = append(p.failed, failed...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	return p
}

// runResult is one run of one workload.
type runResult struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Ops       int                `json:"ops"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Correct   bool               `json:"correct"`
	Errors    []string           `json:"errors,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Samples   map[string]int     `json:"samples"`
	SelfNS    map[string]float64 `json:"self_ns,omitempty"` // traced: median self time per span name
}

func (r *runResult) fail(err error) {
	r.Correct = false
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, err.Error())
	}
}

func (r *runResult) count(p phase) {
	r.Attempted += p.ops()
	r.Failed += len(p.failed)
	for _, err := range p.failed {
		r.fail(err)
	}
}

// secondBest stores under name the second-lowest (second-highest, if
// higher is better) of the per-slice values, which summarise n samples in
// all; fewer samples than a median needs is an error unless the run is a
// smoke run.
func (r *runResult) secondBest(name string, perSlice []float64, higher bool, n int, smoke bool) {
	r.Samples[name] = n
	if n < 2*minTailSamples {
		if !smoke {
			r.fail(fmt.Errorf("%s: %d samples, need %d", name, n, 2*minTailSamples))
		}
		return
	}
	v := sortedCopy(perSlice)
	i := min(1, len(v)-1)
	if higher {
		i = len(v) - 1 - i
	}
	r.Metrics[name] = v[i]
}

// measured is what one ops phase yields besides latencies: the index of its
// first op, and runtime and layer-counter changes over exactly that phase.
type measured struct {
	phase
	first      int
	mem0, mem1 runtime.MemStats
	delta      map[string]float64
}

// warmUp runs the untimed ops that precede a measured phase.
func warmUp(inst instance, w workload, next *int) {
	warm := runOps(w.clients, budget{ops: warmOps * w.clients}, *next, func(i int) error { return inst.op(nil, i) })
	*next += warm.ops()
	runtime.GC()
}

// measure runs one measured slice of ops from op index *next, advancing
// *next past the ops it used.
func measure(inst instance, w workload, b budget, next *int, tr *tracer) measured {
	m := measured{first: *next}
	before := inst.counters()
	runtime.ReadMemStats(&m.mem0)
	m.phase = runOps(w.clients, b, *next, func(i int) error { return inst.op(tr, i) })
	runtime.ReadMemStats(&m.mem1)
	*next += m.ops()
	m.delta = inst.counters()
	for k, v := range before {
		m.delta[k] -= v
	}
	return m
}

// runOpts are the settings of one run that do not depend on the workload.
type runOpts struct {
	seed   int64
	dur    time.Duration // zero: the workload's own op counts
	smoke  bool          // 1/50 op counts, one set-up, no sample-size demands
	outDir string        // where a traced run writes its spans
}

// more reports whether an untraced run that has set up n times in d should
// set up again: setupReps times at least, and until the set-ups have taken a
// second or there are five times as many, so that a quick set-up's median
// rests on more of them. A smoke run sets up once.
func (o runOpts) more(n int, d time.Duration) bool {
	if o.smoke {
		return n < 1
	}
	return n < setupReps || (d < time.Second && n < 5*setupReps)
}

// sized is the budget of one phase: n ops (n/50 in a smoke run) or, in a
// time-sized run, the given share of its time with a floor of min ops.
func (o runOpts) sized(n int, share float64, min int) budget {
	if o.dur > 0 {
		return budget{dur: time.Duration(share * float64(o.dur)), min: min}
	}
	if o.smoke {
		n /= 50
	}
	return budget{ops: max(n, 1)}
}

// runUntraced produces the end-to-end metrics of one workload.
func runUntraced(w workload, o runOpts) (res *runResult) {
	res = &runResult{Workload: w.name, Correct: true, Metrics: map[string]float64{}, Samples: map[string]int{}}
	var inst instance
	var setups []float64
	for begin := time.Now(); o.more(len(setups), time.Since(begin)); {
		if inst != nil {
			if err := inst.close(); err != nil {
				res.fail(err)
			}
		}
		start := time.Now()
		var err error
		if inst, err = w.setup(o.seed); err != nil {
			res.fail(fmt.Errorf("setup: %w", err))
			return res
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() {
		if err := inst.close(); err != nil {
			res.fail(err)
		}
	}()
	sort.Float64s(setups)
	res.Metrics["setup_s"], res.Samples["setup_s"] = median(setups), len(setups)

	// The run alternates slices of ops and of first-row probes; of a
	// time-sized run the ops take nine tenths. Interference on the shared
	// host comes in bursts of seconds to tens of seconds and only ever slows
	// an op down, so latency is the second-lowest of the slices' medians and
	// throughput the second-highest of their rates: what the system does when
	// the host leaves it alone, without trusting a single lucky slice. p95 has
	// no such defence: it is taken over all ops, when there are the 200 it
	// needs.
	var (
		next, probeNext int
		lat             []time.Duration
		p50s, rates     []float64
		firstRows       int
		firstP50s       []float64
		mallocs         uint64
		delta           = map[string]float64{}
		opsB            = o.sized(w.ops, 0.9, minTimed).slice()
		probesB         = o.sized(w.probes, 0.1, 2*minTailSamples).slice()
	)
	warmUp(inst, w, &next)
	for s := 0; s < slices; s++ {
		// Each slice starts from a collected heap, so that neither kind of
		// slice pays for the other's garbage.
		runtime.GC()
		m := measure(inst, w, opsB, &next, nil)
		res.count(m.phase)
		lat = append(lat, m.lat...)
		if len(m.lat) > 0 {
			p50s = append(p50s, median(millis(m.lat)))
			rates = append(rates, float64(len(m.lat))/m.wall.Seconds())
		}
		mallocs += m.mem1.Mallocs - m.mem0.Mallocs
		for k, v := range m.delta {
			delta[k] += v
		}
		var first []time.Duration
		runtime.GC()
		probes := runOps(1, probesB, probeNext, func(i int) error {
			d, err := inst.firstRow(i)
			if err == nil {
				first = append(first, d)
			}
			return err
		})
		probeNext += probes.ops()
		res.count(probes)
		if len(first) > 0 {
			firstRows += len(first)
			firstP50s = append(firstP50s, median(millis(first)))
		}
	}
	res.Ops = next - warmOps*w.clients
	if err := inst.verify(delta, res.Ops); err != nil {
		res.fail(err)
	}
	res.secondBest("op_p50_ms", p50s, false, len(lat), o.smoke)
	res.secondBest("ops_per_s", rates, true, len(lat), o.smoke)
	res.secondBest("first_row_p50_ms", firstP50s, false, firstRows, o.smoke)
	res.Samples["op_p95_ms"] = len(lat)
	if v, err := percentile(millis(lat), 95); err == nil {
		res.Metrics["op_p95_ms"] = v
	}
	res.Metrics["allocs_per_op"], res.Samples["allocs_per_op"] = float64(mallocs)/float64(max(res.Ops, 1)), res.Ops
	return res
}

// runTraced produces the per-layer metrics of one workload: an untraced
// reference phase (runtime and counter changes, and the op median that
// tracing overhead is measured against), traced ops, then the substitutions.
// Each phase has a quarter of the untraced run's op count; a time-sized run
// gives them 15%, 15% and 70% of its time, a substitution costing several
// ops, and reports the ops it had time to substitute.
func runTraced(w workload, o runOpts) (res *runResult) {
	res = &runResult{Workload: w.name, Traced: true, Correct: true, Metrics: map[string]float64{}, Samples: map[string]int{}}
	inst, err := w.setup(o.seed)
	if err != nil {
		res.fail(fmt.Errorf("setup: %w", err))
		return res
	}
	explicit := map[string]float64{}
	next := 0
	warmUp(inst, w, &next)
	ref := measure(inst, w, o.sized(w.ops/4, 0.15, 2*minTailSamples), &next, nil)
	res.count(ref.phase)
	if err := inst.verify(ref.delta, ref.ops()); err != nil {
		res.fail(err)
	}
	for k, v := range ref.delta {
		explicit[k] = v
	}
	explicit["allocs_per_op"] = float64(ref.mem1.Mallocs-ref.mem0.Mallocs) / float64(max(ref.ops(), 1))
	if v, err := percentile(millis(ref.lat), 95); err == nil {
		explicit["op_p95_ms"] = v
	}
	explicit["runtime.alloc_kb_per_op"] = float64(ref.mem1.TotalAlloc-ref.mem0.TotalAlloc) / 1024 / float64(max(ref.ops(), 1))
	explicit["runtime.gc_cycles"] = float64(ref.mem1.NumGC - ref.mem0.NumGC)
	explicit["runtime.gc_pause_ms"] = float64(ref.mem1.PauseTotalNs-ref.mem0.PauseTotalNs) / 1e6
	// Heap in use when the phase ends, garbage included: HeapSys would carry
	// over from whatever ran earlier in the process.
	explicit["runtime.heap_peak_mb"] = float64(ref.mem1.HeapInuse) / (1 << 20)

	tr := newTracer()
	warmUp(inst, w, &next)
	traced := measure(inst, w, o.sized(w.ops/4, 0.15, 2*minTailSamples), &next, tr)
	res.count(traced.phase)
	res.Ops = traced.ops()

	start := time.Now()
	subs := 0
	for ; subs < traced.ops() && (o.dur == 0 || subs < 3 || time.Since(start) < o.dur*70/100); subs++ {
		res.Attempted++
		runtime.GC() // the previous substitution's index builds left garbage
		if err := inst.substitute(tr, traced.first+subs); err != nil {
			res.Failed++
			res.fail(fmt.Errorf("substitute %d: %w", traced.first+subs, err))
			break
		}
	}
	for k, v := range inst.layers() {
		explicit[k] = v
	}
	if err := inst.close(); err != nil {
		res.fail(err)
	}
	explicit["runtime.goroutines_end"] = float64(runtime.NumGoroutine())

	// Only ops that were substituted have their full span tree.
	spans := tr.opSpans(traced.first, traced.first+subs)
	spanNS := durations(spans)
	derive(explicit, spanNS)
	if r := median(millis(ref.lat)); r > 0 {
		explicit["trace.overhead_share"] = median(millis(traced.lat))/r - 1
	}
	res.Metrics = layerValues(explicit, spanNS)
	for _, m := range perLayer {
		res.Samples[m.Name] = subs
	}
	for _, m := range demoted {
		res.Samples[m.Name] = ref.ops()
	}
	res.SelfNS = selfDurations(spans)
	if o.outDir != "" {
		if err := tr.write(filepath.Join(o.outDir, "trace-"+w.name+".json")); err != nil {
			res.fail(err)
		}
	}
	return res
}

// derive fills the per-layer metrics defined as differences or ratios of
// two span medians.
func derive(explicit, spanNS map[string]float64) {
	diff := func(name, a, b string) {
		if x, ok := spanNS[a]; ok {
			if y, ok := spanNS[b]; ok {
				explicit[name] = (x - y) / 1e6
			}
		}
	}
	diff("mmql.residual_ms", "mmql.execute", "xmjoin.execute")
	diff("core.materialize_ms", "core.xjoin", "core.stream")
	diff("xmjoin.decode_ms", "xmjoin.stream", "core.stream")
	diff("server.overhead_ms", "http.round_trip", "server.exec")
	if p := spanNS["wcoj.join_parallel2"]; p > 0 {
		explicit["wcoj.parallel_speedup"] = spanNS["wcoj.join"] / p
	}
}
