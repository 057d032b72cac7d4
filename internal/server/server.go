package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	xmjoin "repro"
	"repro/internal/catalog"
	"repro/internal/mmql"
)

// Config tunes the server-wide defaults; per-tenant overrides go through
// TenantConfig.
type Config struct {
	// DefaultDeadline applies to requests that name none (0 = requests
	// without a deadline run unbounded).
	DefaultDeadline time.Duration
	// MaxDeadline caps client-requested deadlines (0 = no cap).
	MaxDeadline time.Duration
	// Parallelism is the per-query ExecOptions.Parallelism; 0 defaults
	// to -1 (GOMAXPROCS morsel workers), which is also what arms the
	// engine's deadline-aware morsel scheduling — deadline gating lives
	// in the parallel executor.
	Parallelism int
	// MaxConcurrent is each tenant's execution slots; 0 derives from
	// GOMAXPROCS / ResolveWorkers(Parallelism), at least 1.
	MaxConcurrent int
	// MaxQueue is each tenant's wait-queue depth beyond its slots before
	// requests are rejected with 429; 0 derives as 2×slots.
	MaxQueue int
	// PrepCacheSize is each tenant's prepared-statement LRU capacity;
	// 0 defaults to 64.
	PrepCacheSize int
}

func (c Config) withDefaults() Config {
	if c.Parallelism == 0 {
		c.Parallelism = -1
	}
	if c.PrepCacheSize == 0 {
		c.PrepCacheSize = 64
	}
	return c
}

// Server is the multi-tenant HTTP front end. Create with New, add
// tenants, then serve it — it is an http.Handler. Endpoints:
//
//	POST /query              materialized answers as one JSON document
//	POST /stream             chunked NDJSON row streaming
//	POST /explain            plan rendering, no execution
//	GET  /tenants            admin summary of every tenant
//	GET  /tenants/{name}/... per-tenant observability: /metrics,
//	                         /debug/pprof/..., /debug/vars,
//	                         /debug/slowlog, /debug/catalog
//	GET  /healthz            liveness probe
//
// Requests address a tenant with the X-Tenant header (or the "tenant"
// JSON field); with exactly one tenant registered it may be omitted. A
// deadline arrives via the X-Deadline-Ms header (or "deadline_ms" JSON
// field), is clamped to Config.MaxDeadline, and bounds the whole request
// — queueing for admission included — flowing into the engine, whose
// deadline-aware morsel scheduler stops dequeuing work it can no longer
// finish in time and returns the partial answer (response field
// "cancelled": true, engine counter Stats.DeadlineStops).
type Server struct {
	cfg     Config
	mu      sync.RWMutex
	tenants map[string]*Tenant
	order   []string
	mux     *http.ServeMux
}

// New returns an empty server with the given defaults.
func New(cfg Config) *Server {
	s := &Server{cfg: cfg.withDefaults(), tenants: make(map[string]*Tenant)}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /stream", s.handleStream)
	mux.HandleFunc("POST /explain", s.handleExplain)
	mux.HandleFunc("GET /tenants", s.handleTenants)
	mux.HandleFunc("GET /tenants/{tenant}/", s.handleTenantDebug)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, "ok\n")
	})
	s.mux = mux
	return s
}

// AddTenant registers a tenant around db with the server defaults.
func (s *Server) AddTenant(name string, db *xmjoin.Database) (*Tenant, error) {
	return s.AddTenantConfig(name, db, TenantConfig{})
}

// AddTenantConfig is AddTenant with per-tenant overrides.
func (s *Server) AddTenantConfig(name string, db *xmjoin.Database, tc TenantConfig) (*Tenant, error) {
	if name == "" {
		return nil, errors.New("server: tenant name must be non-empty")
	}
	if strings.ContainsAny(name, "/ ") {
		return nil, fmt.Errorf("server: tenant name %q must not contain '/' or spaces", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.tenants[name]; dup {
		return nil, fmt.Errorf("server: tenant %q already registered", name)
	}
	t := newTenant(name, db, s.cfg, tc)
	s.tenants[name] = t
	s.order = append(s.order, name)
	sort.Strings(s.order)
	return t, nil
}

// Tenant returns a registered tenant by name.
func (s *Server) Tenant(name string) (*Tenant, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tenants[name]
	return t, ok
}

// ServeHTTP dispatches to the server's mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// queryRequest is the JSON request body of /query, /stream and /explain.
// A non-JSON body is taken verbatim as the query text, with tenant and
// deadline supplied by headers.
type queryRequest struct {
	Tenant     string `json:"tenant,omitempty"`
	Query      string `json:"query"`
	DeadlineMS int64  `json:"deadline_ms,omitempty"`
}

// queryResponse is the JSON response of /query (and /explain, which only
// fills Tenant and Text).
type queryResponse struct {
	Tenant  string     `json:"tenant"`
	Columns []string   `json:"columns,omitempty"`
	Rows    [][]string `json:"rows"`
	// Text replaces the tabular answer for EXPLAIN / EXPLAIN ANALYZE.
	Text string `json:"text,omitempty"`
	// Cancelled marks an answer the request deadline (or the client going
	// away) overtook: either the join was pre-empted and Rows holds the
	// answers found in time, or the join finished but the post-join work
	// (filters, sort, decode) ran past the deadline and Rows may be
	// complete. Either way the answer was not ready within the deadline.
	Cancelled bool `json:"cancelled,omitempty"`
	// DeadlineStops surfaces the engine's deadline-aware scheduler: how
	// many morsels it refused to start because the remaining budget
	// could not cover them.
	DeadlineStops int `json:"deadline_stops,omitempty"`
	// Cache reports the prepared-statement cache outcome: "hit",
	// "miss", or "bypass" (EXPLAIN and VIA baseline are not cached).
	Cache     string        `json:"cache"`
	ElapsedMS float64       `json:"elapsed_ms"`
	Stats     *xmjoin.Stats `json:"stats,omitempty"`
}

// errorResponse is every non-2xx JSON body.
type errorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, errorResponse{Error: msg, Code: code})
}

// readRequest decodes the body (JSON or raw text) and resolves the
// tenant: X-Tenant header first, then the JSON field, then the only
// registered tenant. It reports errors directly to w and returns ok =
// false after doing so.
func (s *Server) readRequest(w http.ResponseWriter, r *http.Request) (req queryRequest, t *Tenant, ok bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "reading body: "+err.Error())
		return req, nil, false
	}
	if ct := r.Header.Get("Content-Type"); strings.Contains(ct, "json") {
		if err := json.Unmarshal(body, &req); err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", "decoding JSON body: "+err.Error())
			return req, nil, false
		}
	} else {
		req.Query = string(body)
	}
	if h := r.Header.Get("X-Tenant"); h != "" {
		req.Tenant = h
	}
	if h := r.Header.Get("X-Deadline-Ms"); h != "" {
		ms, err := strconv.ParseInt(h, 10, 64)
		if err != nil || ms < 0 {
			writeError(w, http.StatusBadRequest, "bad_request", "X-Deadline-Ms must be a non-negative integer")
			return req, nil, false
		}
		req.DeadlineMS = ms
	}
	if strings.TrimSpace(req.Query) == "" {
		writeError(w, http.StatusBadRequest, "bad_request", "empty query")
		return req, nil, false
	}
	s.mu.RLock()
	switch {
	case req.Tenant != "":
		t = s.tenants[req.Tenant]
	case len(s.order) == 1:
		t = s.tenants[s.order[0]]
		req.Tenant = s.order[0]
	}
	s.mu.RUnlock()
	if t == nil {
		if req.Tenant == "" {
			writeError(w, http.StatusBadRequest, "bad_request", "no tenant specified (X-Tenant header or \"tenant\" field)")
		} else {
			writeError(w, http.StatusNotFound, "unknown_tenant", "unknown tenant "+strconv.Quote(req.Tenant))
		}
		return req, nil, false
	}
	return req, t, true
}

// requestContext derives the execution context: the request's own context
// (client disconnect cancels) bounded by the resolved deadline.
func (s *Server) requestContext(r *http.Request, req queryRequest) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		d = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	if s.cfg.MaxDeadline > 0 && (d == 0 || d > s.cfg.MaxDeadline) {
		d = s.cfg.MaxDeadline
	}
	if d <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), d)
}

// execute runs one parsed statement for a tenant through its
// prepared-statement cache (EXPLAIN and VIA baseline bypass it — they are
// not preparable).
func (t *Tenant) execute(ctx context.Context, text string, st *mmql.Statement) (out *mmql.Output, cache string, err error) {
	opts := xmjoin.ExecOptions{Parallelism: t.parallelism}
	if st.Explain || st.Algo == "baseline" {
		out, err = mmql.RunCtx(ctx, t.db, st, opts)
		return out, "bypass", err
	}
	p, cache, err := t.prepared(ctx, text, st)
	if err != nil {
		return nil, cache, err
	}
	out, err = p.ExecuteCtx(ctx, opts)
	return out, cache, err
}

// prepared returns the statement's plan from the tenant's cache, keyed by
// its text, and whether the cache held it ("hit") or built it ("miss"). A
// prepare failure other than a cancellation is the request's own fault.
func (t *Tenant) prepared(ctx context.Context, text string, st *mmql.Statement) (*mmql.Prepared, string, error) {
	p, hit, err := t.prep.get(text, func() (*mmql.Prepared, error) {
		return mmql.PrepareStatement(ctx, t.db, st)
	})
	cache := "miss"
	if hit {
		cache = "hit"
	}
	if err != nil && !errors.Is(err, xmjoin.ErrCancelled) {
		err = badRequestError{err}
	}
	return p, cache, err
}

// badRequestError marks failures of the request itself (parse errors,
// unknown tables or attributes) as distinct from engine failures.
type badRequestError struct{ err error }

func (e badRequestError) Error() string { return e.err.Error() }
func (e badRequestError) Unwrap() error { return e.err }

// answered maps an execution error onto the response that /query and the
// materialized /stream share, and a parse error of either endpoint onto
// its 400. With no error, or a cancellation (the deadline's partial
// answer, counted here), the caller answers, marking cancelled. Any other
// error is counted and written here, 400 for the request's own faults and
// 500 for the engine's, and ok is false.
func answered(w http.ResponseWriter, t *Tenant, err error) (cancelled, ok bool) {
	switch {
	case err == nil:
		return false, true
	case errors.Is(err, xmjoin.ErrCancelled):
		t.mDeadline.Inc()
		return true, true
	}
	t.mErrors.Inc()
	var bad badRequestError
	if errors.As(err, &bad) {
		writeError(w, http.StatusBadRequest, "query_error", err.Error())
	} else {
		writeError(w, http.StatusInternalServerError, "internal", err.Error())
	}
	return false, false
}

// handleQuery is POST /query: admission, deadline, cached prepared
// execution, one JSON document out. A deadline-pre-empted run answers
// 200 with the partial rows and "cancelled": true — partial answers are
// the feature, not an error.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, t, ok := s.readRequest(w, r)
	if !ok {
		return
	}
	ctx, cancel := s.requestContext(r, req)
	defer cancel()
	release, err := t.admit(ctx)
	if err != nil {
		writeAdmissionError(w, t, err, func() {
			writeJSON(w, http.StatusOK, queryResponse{Tenant: req.Tenant, Rows: [][]string{}, Cancelled: true, Cache: "none"})
		})
		return
	}
	defer release()
	start := time.Now()
	st, err := mmql.Parse(req.Query)
	if err != nil {
		answered(w, t, badRequestError{err})
		return
	}
	out, cacheState, err := t.execute(ctx, req.Query, st)
	cancelled, ok := answered(w, t, err)
	if !ok {
		return
	}
	resp := queryResponse{Tenant: req.Tenant, Cache: cacheState, Rows: [][]string{}, Cancelled: cancelled}
	if out != nil {
		resp.Columns = out.Attrs
		if out.Rows != nil {
			resp.Rows = out.Rows
		}
		resp.Text = out.Text
		resp.Stats = out.Stats
		if out.Stats != nil {
			resp.DeadlineStops = out.Stats.DeadlineStops
		}
	}
	resp.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	writeJSON(w, http.StatusOK, resp)
}

// writeAdmissionError maps an admit failure: queue overflow → 429 with
// Retry-After; a deadline that expired while queued → a deadline response
// written by cancelled, the endpoint's own "cancelled, empty partial
// answer" — the shape a mid-run expiry produces.
func writeAdmissionError(w http.ResponseWriter, t *Tenant, err error, cancelled func()) {
	if errors.Is(err, ErrOverloaded) {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "overloaded", err.Error())
		return
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.mDeadline.Inc()
		cancelled()
		return
	}
	// The client went away while queued; the status is never seen.
	writeError(w, http.StatusBadRequest, "cancelled", err.Error())
}

// streamChunk is one NDJSON line of /stream: first a header with the
// columns, then one line per row batch, then a trailer with the run's
// outcome.
type streamChunk struct {
	Columns []string   `json:"columns,omitempty"`
	Rows    [][]string `json:"rows,omitempty"`
	Done    bool       `json:"done,omitempty"`
	// Trailer fields, set only with Done.
	RowCount      int           `json:"row_count,omitempty"`
	Cancelled     bool          `json:"cancelled,omitempty"`
	DeadlineStops int           `json:"deadline_stops,omitempty"`
	Cache         string        `json:"cache,omitempty"`
	ElapsedMS     float64       `json:"elapsed_ms,omitempty"`
	Stats         *xmjoin.Stats `json:"stats,omitempty"`
	Error         string        `json:"error,omitempty"`
}

// handleStream is POST /stream: answers leave as NDJSON chunks while the
// join still runs, backed by the pull cursor's NextBatch. Streaming
// bypasses the materialized path's dedup/sort — rows arrive in engine
// order and a projected SELECT may repeat rows (documented contract).
// Statements that need the whole result (aggregates, GROUP BY, EXISTS,
// EXPLAIN) fall back to materialized execution and stream the finished
// rows in chunks.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	req, t, ok := s.readRequest(w, r)
	if !ok {
		return
	}
	ctx, cancel := s.requestContext(r, req)
	defer cancel()
	release, err := t.admit(ctx)
	if err != nil {
		writeAdmissionError(w, t, err, func() {
			writeStream(w, nil, nil, streamChunk{Done: true, Cancelled: true, Cache: "none"})
		})
		return
	}
	defer release()
	start := time.Now()

	st, err := mmql.Parse(req.Query)
	if err != nil {
		answered(w, t, badRequestError{err})
		return
	}
	if !st.Streamable() {
		s.streamMaterialized(w, t, ctx, req.Query, st, start)
		return
	}

	p, cacheState, err := t.prepared(ctx, req.Query, st)
	var rows *mmql.StreamRows
	if err == nil {
		rows, err = p.Rows(ctx, xmjoin.ExecOptions{Parallelism: t.parallelism})
	}
	if err != nil {
		// Only this request's own deadline makes an empty cancelled
		// answer: a live request can also get the cancellation of a
		// sibling whose prepare it shared in the cache.
		if errors.Is(err, xmjoin.ErrCancelled) && ctx.Err() != nil {
			t.mDeadline.Inc()
			writeStream(w, nil, nil, streamChunk{Done: true, Cancelled: true, Cache: cacheState,
				ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond)})
			return
		}
		t.mErrors.Inc()
		writeError(w, http.StatusBadRequest, "query_error", err.Error())
		return
	}
	defer rows.Close()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	_ = enc.Encode(streamChunk{Columns: rows.Columns()})
	if flusher != nil {
		flusher.Flush()
	}
	n := 0
	for batch := rows.NextBatch(); batch != nil; batch = rows.NextBatch() {
		n += len(batch)
		if err := enc.Encode(streamChunk{Rows: batch}); err != nil {
			return // client went away; Close stops the join
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	trailer := streamChunk{Done: true, RowCount: n, Cache: cacheState,
		ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond)}
	if serr := rows.Err(); serr != nil {
		if errors.Is(serr, xmjoin.ErrCancelled) {
			trailer.Cancelled = true
			t.mDeadline.Inc()
		} else {
			trailer.Error = serr.Error()
			t.mErrors.Inc()
		}
	}
	if stats, ok := rows.Stats(); ok {
		trailer.Stats = &stats
		trailer.DeadlineStops = stats.DeadlineStops
		if stats.Cancelled {
			trailer.Cancelled = true
		}
	}
	_ = enc.Encode(trailer)
}

// streamMaterialized answers /stream for non-streamable statements:
// execute materialized, then chunk the finished rows out in the same
// NDJSON shape.
func (s *Server) streamMaterialized(w http.ResponseWriter, t *Tenant, ctx context.Context, text string, st *mmql.Statement, start time.Time) {
	out, cacheState, err := t.execute(ctx, text, st)
	cancelled, ok := answered(w, t, err)
	if !ok {
		return
	}
	var cols []string
	var rows [][]string
	var stats *xmjoin.Stats
	if out != nil {
		cols, rows, stats = out.Attrs, out.Rows, out.Stats
	}
	trailer := streamChunk{Done: true, Cache: cacheState, Cancelled: cancelled,
		ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond), Stats: stats}
	if stats != nil {
		trailer.DeadlineStops = stats.DeadlineStops
	}
	writeStream(w, cols, rows, trailer)
}

// writeStream answers /stream with finished rows: the NDJSON header line,
// the rows in chunks of 64, then the trailer with its row count.
func writeStream(w http.ResponseWriter, cols []string, rows [][]string, trailer streamChunk) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	_ = enc.Encode(streamChunk{Columns: cols})
	for off := 0; off < len(rows); off += 64 {
		_ = enc.Encode(streamChunk{Rows: rows[off:min(off+64, len(rows))]})
	}
	trailer.RowCount = len(rows)
	_ = enc.Encode(trailer)
}

// handleExplain is POST /explain: render the plan, execute nothing.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	req, t, ok := s.readRequest(w, r)
	if !ok {
		return
	}
	st, perr := mmql.Parse(req.Query)
	if perr != nil {
		writeError(w, http.StatusBadRequest, "query_error", perr.Error())
		return
	}
	text, err := mmql.Explain(t.db, st)
	if err != nil {
		writeError(w, http.StatusBadRequest, "query_error", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, queryResponse{Tenant: req.Tenant, Text: text, Rows: [][]string{}, Cache: "bypass"})
}

// TenantSummary is one /tenants entry.
type TenantSummary struct {
	Name        string         `json:"name"`
	Tables      []string       `json:"tables"`
	Docs        []string       `json:"docs"`
	Catalog     catalog.Stats  `json:"catalog"`
	Prepared    PrepCacheStats `json:"prepared"`
	Admission   AdmissionStats `json:"admission"`
	SlowQueries int64          `json:"slow_queries"`
}

// handleTenants is GET /tenants: the admin summary.
func (s *Server) handleTenants(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	names := append([]string(nil), s.order...)
	s.mu.RUnlock()
	out := make([]TenantSummary, 0, len(names))
	for _, name := range names {
		t, ok := s.Tenant(name)
		if !ok {
			continue
		}
		docs := t.db.DocNames()
		if t.db.Doc() != nil {
			docs = append([]string{"(default)"}, docs...)
		}
		out = append(out, TenantSummary{
			Name:        name,
			Tables:      t.db.TableNames(),
			Docs:        docs,
			Catalog:     t.db.Catalog().Stats(),
			Prepared:    t.prep.stats(),
			Admission:   t.admissionStats(),
			SlowQueries: t.db.SlowLog().Total(),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleTenantDebug serves GET /tenants/{name}/... — the tenant's
// observability surface (obs.Handler plus the slowlog and catalog
// mounts), with the /tenants/{name} prefix stripped.
func (s *Server) handleTenantDebug(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	t, ok := s.Tenant(name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown_tenant", "unknown tenant "+strconv.Quote(name))
		return
	}
	http.StripPrefix("/tenants/"+name, t.debug).ServeHTTP(w, r)
}
