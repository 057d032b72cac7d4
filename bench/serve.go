package main

// The three serving workloads: an in-process xmserve on loopback TCP with
// one tenant, driven over real HTTP by at most two closed-loop clients.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	xmjoin "repro"
	"repro/internal/core"
	"repro/internal/mmql"
	"repro/internal/server"
)

// response mirrors the fields of the server's /query answer the benchmark
// reads; marshalling it back costs what the server's encode costs.
type response struct {
	Tenant        string        `json:"tenant"`
	Columns       []string      `json:"columns,omitempty"`
	Rows          [][]string    `json:"rows"`
	Cancelled     bool          `json:"cancelled,omitempty"`
	DeadlineStops int           `json:"deadline_stops,omitempty"`
	Cache         string        `json:"cache"`
	ElapsedMS     float64       `json:"elapsed_ms"`
	Stats         *xmjoin.Stats `json:"stats,omitempty"`
}

// served is a running server with its one tenant's database and a client.
type served struct {
	probed
	db   *xmjoin.Database
	hs   *http.Server
	done chan error // Serve's return
	base string
	hc   *http.Client
	exec xmjoin.ExecOptions // how the server executes statements

	samples samples // per-op values of explicit per-layer metrics

	mu   sync.Mutex
	last response // latest decoded answer, for server.encode
}

func startServer(seed int64) (*served, error) {
	db, err := shopDatabase(seed, true)
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{})
	if _, err := srv.AddTenant("bench", db); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{db: db, hs: &http.Server{Handler: srv}, done: make(chan error, 1), base: "http://" + ln.Addr().String(),
		hc:   &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}},
		exec: xmjoin.ExecOptions{Parallelism: -1}}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

func (s *served) close() error {
	s.hc.CloseIdleConnections()
	if err := s.hs.Close(); err != nil {
		return err
	}
	if err := <-s.done; err != http.ErrServerClosed {
		return err
	}
	return nil
}

func (s *served) request(path, query string, deadlineMS int) (*http.Request, error) {
	body, err := json.Marshal(map[string]string{"query": query})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest("POST", s.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if deadlineMS > 0 {
		req.Header.Set("X-Deadline-Ms", strconv.Itoa(deadlineMS))
	}
	return req, nil
}

// query posts one statement to /query and decodes the answer. Under a tracer
// the op's spans are the round trip (send to last body byte), the server's
// own elapsed_ms inside it, and the client's decode.
func (s *served) query(tr *tracer, i int, query string, deadlineMS int) (*response, error) {
	req, err := s.request("/query", query, deadlineMS)
	if err != nil {
		return nil, err
	}
	root := tr.begin(i, 0, "op")
	defer tr.end(root)
	start := time.Now()
	resp, err := s.hc.Do(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rt := time.Since(start)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var out response
	if _, err := tr.do(i, root, "client.decode", func() error { return json.Unmarshal(data, &out) }); err != nil {
		return nil, err
	}
	if tr != nil {
		id := tr.add(i, root, "http.round_trip", start, rt)
		tr.add(i, id, "server.exec", start, time.Duration(out.ElapsedMS*1e6))
		s.samples.add("server.response_bytes", float64(len(data)))
		s.mu.Lock()
		s.last = out
		s.mu.Unlock()
	}
	return &out, nil
}

// firstChunk posts one statement to /stream and returns how long the first
// NDJSON chunk that carries rows took to arrive. It then hangs up, which
// stops the join, and waits until the server has released the request's
// admission slot, so that the abandoned join does not delay the next op.
func (s *served) firstChunk(query string) (time.Duration, error) {
	req, err := s.request("/stream", query, 0)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	resp, err := s.hc.Do(req)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return 0, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	var first time.Duration
	for r := bufio.NewReader(resp.Body); first == 0; {
		line, err := r.ReadBytes('\n')
		if bytes.HasPrefix(line, []byte(`{"rows":[[`)) {
			first = time.Since(start)
		} else if err != nil {
			resp.Body.Close()
			return 0, fmt.Errorf("stream ended without a row chunk: %w", err)
		}
	}
	resp.Body.Close()
	for {
		t, err := s.tenant()
		if err != nil {
			return 0, err
		}
		if t.Admission.Pending == 0 {
			return first, nil
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// tenant reads the one tenant's summary from GET /tenants.
func (s *served) tenant() (server.TenantSummary, error) {
	resp, err := s.hc.Get(s.base + "/tenants")
	if err != nil {
		return server.TenantSummary{}, err
	}
	defer resp.Body.Close()
	var sums []server.TenantSummary
	if err := json.NewDecoder(resp.Body).Decode(&sums); err != nil {
		return server.TenantSummary{}, err
	}
	if len(sums) != 1 {
		return server.TenantSummary{}, fmt.Errorf("GET /tenants lists %d tenants, want 1", len(sums))
	}
	return sums[0], nil
}

// counters reads the tenant's cumulative counters. A failed read leaves
// them empty, which the workload's verify then reports.
func (s *served) counters() map[string]float64 {
	t, err := s.tenant()
	if err != nil {
		return map[string]float64{}
	}
	return map[string]float64{
		"catalog.hits": float64(t.Catalog.Hits), "catalog.misses": float64(t.Catalog.Misses),
		"catalog.evictions": float64(t.Catalog.Evictions), "catalog.resident_bytes": float64(t.Catalog.ResidentBytes),
		"catalog.entries":  float64(t.Catalog.Entries),
		"server.prep_hits": float64(t.Prepared.Hits), "server.prep_misses": float64(t.Prepared.Misses),
		"server.prep_entries": float64(t.Prepared.Entries),
		"server.admitted":     float64(t.Admission.Admitted), "server.rejected": float64(t.Admission.Rejected),
	}
}

func (s *served) layers() map[string]float64 {
	out := s.probed.layers()
	if out == nil {
		out = make(map[string]float64)
	}
	s.samples.medians(out)
	return out
}

// statementLayers records, for one statement as the server runs it, the
// layers below a request: parse and the response encode always, prepare
// under prepParent and execute under execParent (the request's server.exec
// span when the request paid for them, 0 when it did not), and below an
// execute the xmjoin call and the engine chain when p and engine are given.
func (s *served) statementLayers(tr *tracer, i int, text string, prepParent, execParent int, engine *engineProbe, p *xmjoin.PreparedQuery) error {
	var st *mmql.Statement
	var prep *mmql.Prepared
	ctx := context.Background()
	if _, err := tr.do(i, tr.find(i, "server.exec"), "mmql.parse", func() (err error) { st, err = mmql.Parse(text); return err }); err != nil {
		return err
	}
	if _, err := tr.do(i, prepParent, "mmql.prepare", func() (err error) { prep, err = mmql.PrepareStatement(ctx, s.db, st); return err }); err != nil {
		return err
	}
	me, err := tr.do(i, execParent, "mmql.execute", func() error { _, err := prep.ExecuteCtx(ctx, s.exec); return err })
	if err != nil {
		return err
	}
	if p != nil {
		xe, err := tr.do(i, me, "xmjoin.execute", func() error { _, err := p.ExecuteCtx(ctx, s.exec); return err })
		if err != nil {
			return err
		}
		if err := engine.warm(tr, i, xe, 0); err != nil {
			return err
		}
	}
	s.mu.Lock()
	last := s.last
	s.mu.Unlock()
	_, err = tr.do(i, tr.find(i, "http.round_trip"), "server.encode", func() error { _, err := json.Marshal(last); return err })
	return err
}

// serveWarm is serve_warm: two clients rotate four full enumerations of the
// shop twig, all prepared-cache hits.
type serveWarm struct {
	*served
	order []int
	want  []int // rows each statement returns, from the library
	p     *xmjoin.PreparedQuery
}

func setupServeWarm(seed int64) (instance, error) {
	s, err := startServer(seed)
	if err != nil {
		return nil, err
	}
	w := &serveWarm{served: s, order: statementOrder(len(warmStatements), seed)}
	for _, text := range warmStatements {
		prep, err := mmql.PrepareString(s.db, text)
		if err != nil {
			return nil, err
		}
		out, err := prep.ExecuteCtx(context.Background(), s.exec)
		if err != nil {
			return nil, err
		}
		w.want = append(w.want, len(out.Rows))
		// The first request for each statement is its one cache miss.
		if got, err := s.query(nil, 0, text, 0); err != nil {
			return nil, err
		} else if got.Cache != "miss" {
			return nil, fmt.Errorf("first request answered cache %q, want miss", got.Cache)
		}
	}
	if w.want[0] != shopRows {
		return nil, fmt.Errorf("library returns %d rows, want %d", w.want[0], shopRows)
	}
	if w.p, err = s.db.Prepare(shopTwig, "R", "S"); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *serveWarm) op(tr *tracer, i int) error {
	k := w.order[i%len(w.order)]
	got, err := w.query(tr, i, warmStatements[k], 0)
	if err != nil {
		return err
	}
	if len(got.Rows) != w.want[k] || got.Cache != "hit" || got.Cancelled {
		return fmt.Errorf("%d rows (want %d), cache %q, cancelled %v", len(got.Rows), w.want[k], got.Cache, got.Cancelled)
	}
	return nil
}

func (w *serveWarm) firstRow(int) (time.Duration, error) { return w.firstChunk(warmStatements[0]) }

func (w *serveWarm) substitute(tr *tracer, i int) (err error) {
	if w.probe == nil {
		if w.probe, err = shopProbe(w.db, core.Options{Parallelism: -1}); err != nil {
			return err
		}
	}
	// Hits skip prepare; execute is what the request's elapsed_ms covers.
	if err := w.statementLayers(tr, i, warmStatements[w.order[i%len(w.order)]], 0, tr.find(i, "server.exec"), w.probe, w.p); err != nil {
		return err
	}
	if err := w.probe.alternatives(tr, i); err != nil {
		return err
	}
	return xmjoinAlternatives(tr, i, w.db, w.p, w.exec, w.probe)
}

func (w *serveWarm) verify(delta map[string]float64, ops int) error {
	if delta["server.prep_misses"] != 0 || delta["server.prep_hits"] != float64(ops) || delta["server.rejected"] != 0 {
		return fmt.Errorf("%d ops: prepared cache %v hits %v misses, %v rejected", ops, delta["server.prep_hits"], delta["server.prep_misses"], delta["server.rejected"])
	}
	return nil
}

// serveColdLimit is serve_cold_limit: LIMIT 5 statements padded so that the
// text-keyed prepared LRU misses every time.
type serveColdLimit struct {
	*served
	mask int // seeded; permutes which padding op i sends
}

func setupServeColdLimit(seed int64) (instance, error) {
	s, err := startServer(seed)
	if err != nil {
		return nil, err
	}
	w := &serveColdLimit{served: s, mask: rand.New(rand.NewSource(seed)).Intn(1 << padBits)}
	return w, w.op(nil, 0)
}

func (w *serveColdLimit) text(i int) string { return coldStatement(i, w.mask) }

func (w *serveColdLimit) op(tr *tracer, i int) error {
	got, err := w.query(tr, i, w.text(i), 0)
	if err != nil {
		return err
	}
	if len(got.Rows) != 5 || got.Cache != "miss" {
		return fmt.Errorf("%d rows (want 5), cache %q (want miss)", len(got.Rows), got.Cache)
	}
	return nil
}

func (w *serveColdLimit) firstRow(i int) (time.Duration, error) { return w.firstChunk(w.text(i)) }

func (w *serveColdLimit) substitute(tr *tracer, i int) error {
	exec := tr.find(i, "server.exec") // every request prepares and executes
	if err := w.statementLayers(tr, i, w.text(i), exec, exec, nil, nil); err != nil {
		return err
	}
	var q *xmjoin.Query
	return runSteps(tr, i, []step{
		{"xmjoin.query_assemble", func() (err error) { q, err = w.db.Query(shopTwig, "R", "S"); return err }},
		{"xmjoin.prepare", func() error { _, err := q.Prepare(); return err }},
	})
}

func (w *serveColdLimit) verify(delta map[string]float64, ops int) error {
	if delta["server.prep_misses"] != float64(ops) || delta["server.prep_hits"] != 0 {
		return fmt.Errorf("%d ops: prepared cache %v misses %v hits, want every op a miss", ops, delta["server.prep_misses"], delta["server.prep_hits"])
	}
	return nil
}

// serveDeadline is serve_deadline: one client sends the 48³-row grid join
// with a 5 ms budget and checks the partial answers it gets back.
type serveDeadline struct {
	*served
	full map[string]bool // every row of the unbounded answer

	answers, cancelled int // traced ops answered, and answered with cancelled:true (one client)
}

func (w *serveDeadline) layers() map[string]float64 {
	out := w.served.layers()
	out["server.cancelled_share"] = float64(w.cancelled) / float64(max(w.answers, 1))
	return out
}

func setupServeDeadline(seed int64) (instance, error) {
	s, err := startServer(seed)
	if err != nil {
		return nil, err
	}
	w := &serveDeadline{served: s, full: make(map[string]bool, gridRows)}
	got, err := s.query(nil, 0, gridStatement, 0)
	if err != nil {
		return nil, err
	}
	if len(got.Rows) != gridRows || got.Cancelled {
		return nil, fmt.Errorf("unbounded grid join: %d rows (want %d), cancelled %v", len(got.Rows), gridRows, got.Cancelled)
	}
	for _, r := range got.Rows {
		w.full[strings.Join(r, "\x00")] = true
	}
	return w, nil
}

func (w *serveDeadline) op(tr *tracer, i int) error {
	start := time.Now()
	got, err := w.query(tr, i, gridStatement, deadline)
	took := time.Since(start)
	if err != nil {
		return err
	}
	if tr != nil {
		w.answers++
		if got.Cancelled {
			w.cancelled++
		}
	}
	if !got.Cancelled {
		return fmt.Errorf("answer with %d rows is not marked cancelled", len(got.Rows))
	}
	if i%25 == 0 {
		for _, r := range got.Rows {
			if !w.full[strings.Join(r, "\x00")] {
				return fmt.Errorf("partial answer holds %v, which the full answer does not", r)
			}
		}
	}
	if tr != nil {
		w.samples.add("server.partial_rows_p50", float64(len(got.Rows)))
		w.samples.add("server.deadline_overshoot_p50_ms", float64(took)/1e6-deadline)
		w.samples.add("wcoj.deadline_stops", float64(got.DeadlineStops))
	}
	return nil
}

// firstRow streams the statement without a deadline: under the 5 ms budget
// a request that waited for its turn can end before its first row, and a
// probe that sometimes has nothing to time is no measurement.
func (w *serveDeadline) firstRow(int) (time.Duration, error) { return w.firstChunk(gridStatement) }

// substitute runs the same statement unbounded through the library — what
// the deadline cuts short, so not a child of the request's spans.
func (w *serveDeadline) substitute(tr *tracer, i int) error {
	return w.statementLayers(tr, i, gridStatement, 0, 0, nil, nil)
}

func (w *serveDeadline) verify(delta map[string]float64, ops int) error {
	if delta["server.rejected"] != 0 {
		return fmt.Errorf("%v requests rejected", delta["server.rejected"])
	}
	return nil
}
