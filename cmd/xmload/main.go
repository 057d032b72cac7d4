// Command xmload is the load-generator harness for xmserve: it drives N
// tenants with a deterministic mix of workload classes and reports
// latency percentiles, throughput, admission rejections, and the
// deadline/cache behaviour the serving layer promises.
//
// Classes (cycled per tenant in a fixed pattern, no randomness):
//
//	warm      repeated statements — prepared-cache hits after round one
//	cold      unique statement texts — every request pays preparation
//	limit     LIMIT 5 probe — engine-side early termination
//	heavy     the scale^3-row grid join, unbounded — the full-run baseline
//	deadline  the same grid join under a tight X-Deadline-Ms — partial
//	          results, Stats.DeadlineStops > 0
//
// After the steady phase, a burst phase fires more concurrent requests
// than one tenant's admission queue holds, demonstrating 429s. With no
// -addr, xmload self-hosts an in-process xmserve. -out writes the full
// report as JSON.
//
//	$ xmload -tenants 4 -n 200 -deadline-ms 5 -out report.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/server"
)

type classStats struct {
	Count         int     `json:"count"`
	Failures      int     `json:"failures"`
	P50MS         float64 `json:"p50_ms"`
	P95MS         float64 `json:"p95_ms"`
	P99MS         float64 `json:"p99_ms"`
	MeanMS        float64 `json:"mean_ms"`
	Cancelled     int     `json:"cancelled"`
	DeadlineStops int     `json:"deadline_stops"`
	CacheHits     int     `json:"cache_hits"`
	CacheMisses   int     `json:"cache_misses"`
}

type report struct {
	Tenants       int                   `json:"tenants"`
	Concurrency   int                   `json:"concurrency_per_tenant"`
	RequestsTotal int                   `json:"requests_total"`
	FailuresTotal int                   `json:"failures_total"`
	ElapsedMS     float64               `json:"elapsed_ms"`
	ThroughputRPS float64               `json:"throughput_rps"`
	DeadlineMS    int                   `json:"deadline_ms"`
	Scale         int                   `json:"scale"`
	Classes       map[string]classStats `json:"classes"`
	// DeadlineSpeedup compares the deadline class's mean latency to the
	// heavy class's: how much faster a pre-empted partial answer returns
	// than the full run it interrupted.
	DeadlineSpeedup float64 `json:"deadline_speedup"`
	// DeadlineProbe is the uncontended before/after measurement: the
	// same heavy statement run to completion and under a tight
	// deadline, sequentially on an otherwise idle server. This isolates
	// the deadline machinery from steady-phase CPU contention.
	DeadlineProbe deadlineProbe `json:"deadline_probe"`
	// BurstRejected counts 429s from the burst phase (steady-phase 429s
	// land in the per-class failure counts; the workload is sized so
	// there are none).
	BurstRejected int `json:"burst_rejected"`
	BurstTotal    int `json:"burst_total"`
	// TenantSummaries is the server's own /tenants view after the run —
	// prepared-cache and admission counters per tenant.
	TenantSummaries []server.TenantSummary `json:"tenant_summaries"`
}

type deadlineProbe struct {
	Rounds          int     `json:"rounds"`
	MeanFullMS      float64 `json:"mean_full_ms"`
	MeanCancelledMS float64 `json:"mean_cancelled_ms"`
	Speedup         float64 `json:"speedup"`
	Cancelled       int     `json:"cancelled"`
	DeadlineStops   int     `json:"deadline_stops"`
}

type sample struct {
	class         string
	ms            float64
	failed        bool
	cancelled     bool
	deadlineStops int
	cache         string
}

func main() {
	addr := flag.String("addr", "", "xmserve base URL (e.g. http://127.0.0.1:8080); empty = self-host in-process")
	tenants := flag.Int("tenants", 4, "number of tenants to drive (self-host) / demo tenants expected (remote)")
	n := flag.Int("n", 200, "requests per tenant (steady phase)")
	conc := flag.Int("conc", 4, "concurrent workers per tenant")
	scale := flag.Int("scale", 48, "demo dataset scale (self-host)")
	deadlineMS := flag.Int("deadline-ms", 5, "deadline for the deadline class")
	out := flag.String("out", "", "write the JSON report here ('-' or empty = stdout only)")
	flag.Parse()

	base := *addr
	var shutdown func()
	if base == "" {
		var err error
		base, shutdown, err = selfHost(*tenants, *scale, *conc)
		if err != nil {
			fatal(err)
		}
		defer shutdown()
	}

	names := make([]string, *tenants)
	for i := range names {
		names[i] = fmt.Sprintf("demo%d", i)
	}

	// Steady phase: every tenant runs the same deterministic class
	// pattern concurrently.
	pattern := []string{"warm", "warm", "warm", "cold", "warm", "limit", "warm", "cold", "heavy", "deadline"}
	warm := server.DemoWarmQueries()
	samples := make(chan sample, *tenants**n)
	start := time.Now()
	var wg sync.WaitGroup
	for _, tenant := range names {
		work := make(chan int)
		for w := 0; w < *conc; w++ {
			wg.Add(1)
			go func(tenant string) {
				defer wg.Done()
				for i := range work {
					samples <- issue(base, tenant, pattern[i%len(pattern)], i, warm, *deadlineMS)
				}
			}(tenant)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < *n; i++ {
				work <- i
			}
			close(work)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(samples)

	byClass := map[string][]sample{}
	failures := 0
	for s := range samples {
		byClass[s.class] = append(byClass[s.class], s)
		if s.failed {
			failures++
		}
	}

	// Burst phase: overwhelm one tenant's admission queue on purpose.
	burstTotal, burstRejected := burst(base, names[0], *deadlineMS)

	// Probe phase: sequential full vs deadline-bounded runs of the same
	// heavy statement, free of steady-phase contention.
	prb := probe(base, names[0], *deadlineMS, 5, warm)

	rep := report{
		Tenants:       *tenants,
		Concurrency:   *conc,
		RequestsTotal: *tenants * *n,
		FailuresTotal: failures,
		ElapsedMS:     float64(elapsed) / float64(time.Millisecond),
		ThroughputRPS: float64(*tenants**n) / elapsed.Seconds(),
		DeadlineMS:    *deadlineMS,
		Scale:         *scale,
		Classes:       map[string]classStats{},
		DeadlineProbe: prb,
		BurstRejected: burstRejected,
		BurstTotal:    burstTotal,
	}
	for class, ss := range byClass {
		rep.Classes[class] = summarize(ss)
	}
	if h, d := rep.Classes["heavy"], rep.Classes["deadline"]; d.MeanMS > 0 {
		rep.DeadlineSpeedup = h.MeanMS / d.MeanMS
	}
	if sums, err := fetchTenants(base); err == nil {
		rep.TenantSummaries = sums
	} else {
		fmt.Fprintln(os.Stderr, "xmload: /tenants scrape failed:", err)
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	_ = enc.Encode(rep)
	if *out != "" && *out != "-" {
		data, _ := json.MarshalIndent(rep, "", "  ")
		data = append(data, '\n')
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fatal(err)
		}
	}
	if failures > 0 {
		os.Exit(1)
	}
}

// selfHost starts an in-process xmserve with demo tenants sized so the
// steady phase never trips admission control (the burst phase does that
// deliberately).
func selfHost(tenants, scale, conc int) (string, func(), error) {
	srv := server.New(server.Config{})
	for i := 0; i < tenants; i++ {
		db, err := server.DemoDatabase(scale)
		if err != nil {
			return "", nil, err
		}
		tc := server.TenantConfig{MaxConcurrent: 2, MaxQueue: 2 * conc}
		if _, err := srv.AddTenantConfig(fmt.Sprintf("demo%d", i), db, tc); err != nil {
			return "", nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: srv}
	go func() { _ = hs.Serve(ln) }()
	return "http://" + ln.Addr().String(), func() { _ = hs.Close() }, nil
}

// issue sends one request of the given class and folds the response into
// a sample.
func issue(base, tenant, class string, i int, warm []string, deadlineMS int) sample {
	var query string
	var deadline int
	switch class {
	case "warm":
		query = warm[i%len(warm)]
	case "cold":
		query = server.DemoColdQuery(i)
	case "limit":
		query = server.DemoLimitQuery()
	case "heavy":
		query = server.DemoHeavyQuery()
	case "deadline":
		query = server.DemoHeavyQuery()
		deadline = deadlineMS
	}
	body, _ := json.Marshal(map[string]any{"tenant": tenant, "query": query})
	req, err := http.NewRequest("POST", base+"/query", bytes.NewReader(body))
	if err != nil {
		return sample{class: class, failed: true}
	}
	req.Header.Set("Content-Type", "application/json")
	if deadline > 0 {
		req.Header.Set("X-Deadline-Ms", fmt.Sprint(deadline))
	}
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	if err != nil {
		return sample{class: class, ms: ms, failed: true}
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return sample{class: class, ms: ms, failed: true}
	}
	var qr struct {
		Cancelled     bool   `json:"cancelled"`
		DeadlineStops int    `json:"deadline_stops"`
		Cache         string `json:"cache"`
	}
	if err := json.Unmarshal(data, &qr); err != nil {
		return sample{class: class, ms: ms, failed: true}
	}
	return sample{class: class, ms: ms, cancelled: qr.Cancelled, deadlineStops: qr.DeadlineStops, cache: qr.Cache}
}

// burst fires far more concurrent heavy requests at one tenant than its
// admission queue holds and counts the 429s.
func burst(base, tenant string, deadlineMS int) (total, rejected int) {
	const parallelReqs = 48
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < parallelReqs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(map[string]any{"tenant": tenant, "query": server.DemoHeavyQuery()})
			req, err := http.NewRequest("POST", base+"/query", bytes.NewReader(body))
			if err != nil {
				return
			}
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set("X-Deadline-Ms", fmt.Sprint(deadlineMS*10))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusTooManyRequests {
				mu.Lock()
				rejected++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return parallelReqs, rejected
}

// probe measures the heavy statement sequentially: rounds full runs,
// then rounds runs under the tight deadline, on an otherwise idle
// server.
func probe(base, tenant string, deadlineMS, rounds int, warm []string) deadlineProbe {
	p := deadlineProbe{Rounds: rounds}
	var fullSum, cancSum float64
	for i := 0; i < rounds; i++ {
		s := issue(base, tenant, "heavy", i, warm, 0)
		fullSum += s.ms
	}
	for i := 0; i < rounds; i++ {
		s := issue(base, tenant, "deadline", i, warm, deadlineMS)
		cancSum += s.ms
		if s.cancelled {
			p.Cancelled++
		}
		p.DeadlineStops += s.deadlineStops
	}
	p.MeanFullMS = fullSum / float64(rounds)
	p.MeanCancelledMS = cancSum / float64(rounds)
	if p.MeanCancelledMS > 0 {
		p.Speedup = p.MeanFullMS / p.MeanCancelledMS
	}
	return p
}

func summarize(ss []sample) classStats {
	var cs classStats
	var lat []float64
	var sum float64
	for _, s := range ss {
		cs.Count++
		if s.failed {
			cs.Failures++
			continue
		}
		lat = append(lat, s.ms)
		sum += s.ms
		if s.cancelled {
			cs.Cancelled++
		}
		cs.DeadlineStops += s.deadlineStops
		switch s.cache {
		case "hit":
			cs.CacheHits++
		case "miss":
			cs.CacheMisses++
		}
	}
	if len(lat) == 0 {
		return cs
	}
	sort.Float64s(lat)
	cs.P50MS = pct(lat, 50)
	cs.P95MS = pct(lat, 95)
	cs.P99MS = pct(lat, 99)
	cs.MeanMS = sum / float64(len(lat))
	return cs
}

func pct(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted) - 1) * p / 100
	return sorted[idx]
}

func fetchTenants(base string) ([]server.TenantSummary, error) {
	resp, err := http.Get(base + "/tenants")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var sums []server.TenantSummary
	if err := json.NewDecoder(resp.Body).Decode(&sums); err != nil {
		return nil, err
	}
	return sums, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xmload:", err)
	os.Exit(1)
}
