package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	xmjoin "repro"
	"repro/internal/faultpoint"
	"repro/internal/obs"
)

// demoServer builds a two-tenant server over small demo databases and
// returns it with its test listener.
func demoServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	for _, name := range []string{"acme", "globex"} {
		db, err := DemoDatabase(8)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.AddTenant(name, db); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestQueryEndpointColdThenWarm(t *testing.T) {
	_, ts := demoServer(t, Config{})
	q := `SELECT userID, price FROM R, TWIG '/invoices/orderLine[orderID]/price'`
	for round, wantCache := range []string{"miss", "hit"} {
		resp, data := postJSON(t, ts.URL+"/query", queryRequest{Tenant: "acme", Query: q})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: status %d: %s", round, resp.StatusCode, data)
		}
		var qr queryResponse
		if err := json.Unmarshal(data, &qr); err != nil {
			t.Fatal(err)
		}
		if qr.Tenant != "acme" || qr.Cache != wantCache {
			t.Fatalf("round %d: tenant=%q cache=%q, want acme/%s", round, qr.Tenant, qr.Cache, wantCache)
		}
		if len(qr.Columns) != 2 || len(qr.Rows) == 0 {
			t.Fatalf("round %d: columns=%v rows=%d", round, qr.Columns, len(qr.Rows))
		}
		if qr.Cancelled {
			t.Fatalf("round %d: unexpected cancellation", round)
		}
	}
}

func TestQueryRawBodyAndHeaders(t *testing.T) {
	_, ts := demoServer(t, Config{})
	req, err := http.NewRequest("POST", ts.URL+"/query",
		strings.NewReader(`SELECT region, COUNT(*) FROM R, S, TWIG '/invoices/orderLine[orderID]/price' GROUP BY region`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/plain")
	req.Header.Set("X-Tenant", "globex")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var qr queryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Tenant != "globex" || len(qr.Rows) == 0 {
		t.Fatalf("tenant=%q rows=%d", qr.Tenant, len(qr.Rows))
	}
}

func TestQueryErrors(t *testing.T) {
	_, ts := demoServer(t, Config{})
	cases := []struct {
		name   string
		req    queryRequest
		status int
		code   string
	}{
		{"unknown tenant", queryRequest{Tenant: "nope", Query: "SELECT * FROM R"}, http.StatusNotFound, "unknown_tenant"},
		{"no tenant (two registered)", queryRequest{Query: "SELECT * FROM R"}, http.StatusBadRequest, "bad_request"},
		{"empty query", queryRequest{Tenant: "acme"}, http.StatusBadRequest, "bad_request"},
		{"parse error", queryRequest{Tenant: "acme", Query: "SELEKT nope"}, http.StatusBadRequest, "query_error"},
		{"unknown table", queryRequest{Tenant: "acme", Query: "SELECT * FROM NoSuchTable"}, http.StatusBadRequest, "query_error"},
	}
	for _, tc := range cases {
		resp, data := postJSON(t, ts.URL+"/query", tc.req)
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, data)
		}
		var er errorResponse
		if err := json.Unmarshal(data, &er); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if er.Code != tc.code {
			t.Fatalf("%s: code %q, want %q", tc.name, er.Code, tc.code)
		}
	}
}

// TestParseErrorsCounted: a malformed statement answers 400 on both
// endpoints, and each one counts once in xmserve_request_errors_total.
func TestParseErrorsCounted(t *testing.T) {
	srv, ts := demoServer(t, Config{})
	tn, _ := srv.Tenant("acme")
	for i, path := range []string{"/query", "/stream"} {
		resp, data := postJSON(t, ts.URL+path, queryRequest{Tenant: "acme", Query: "SELEKT nope"})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (%s)", path, resp.StatusCode, data)
		}
		if got := tn.mErrors.Value(); got != int64(i+1) {
			t.Fatalf("after %s: request errors = %d, want %d", path, got, i+1)
		}
	}
}

func TestSingleTenantDefault(t *testing.T) {
	srv := New(Config{})
	db, err := DemoDatabase(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.AddTenant("solo", db); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, data := postJSON(t, ts.URL+"/query", queryRequest{Query: "SELECT * FROM R"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var qr queryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Tenant != "solo" {
		t.Fatalf("tenant = %q, want solo", qr.Tenant)
	}
}

func TestStreamEndpoint(t *testing.T) {
	_, ts := demoServer(t, Config{})
	q := `SELECT userID, price FROM R, TWIG '/invoices/orderLine[orderID]/price'`
	resp, data := postJSON(t, ts.URL+"/stream", queryRequest{Tenant: "acme", Query: q})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var chunks []streamChunk
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		var c streamChunk
		if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		chunks = append(chunks, c)
	}
	if len(chunks) < 3 {
		t.Fatalf("want header+rows+trailer, got %d chunks", len(chunks))
	}
	if got := chunks[0].Columns; len(got) != 2 {
		t.Fatalf("header columns = %v", got)
	}
	rows := 0
	for _, c := range chunks[1 : len(chunks)-1] {
		rows += len(c.Rows)
	}
	last := chunks[len(chunks)-1]
	if !last.Done || last.RowCount != rows || last.Error != "" || last.Cancelled {
		t.Fatalf("trailer = %+v with %d streamed rows", last, rows)
	}
	if last.Cache != "miss" {
		t.Fatalf("first stream should miss the prep cache, got %q", last.Cache)
	}
}

func TestStreamNonStreamableFallsBack(t *testing.T) {
	_, ts := demoServer(t, Config{})
	q := `SELECT userID, COUNT(*) FROM R, TWIG '/invoices/orderLine[orderID]/price' GROUP BY userID`
	resp, data := postJSON(t, ts.URL+"/stream", queryRequest{Tenant: "acme", Query: q})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	var last streamChunk
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatal(err)
	}
	if !last.Done || last.RowCount == 0 {
		t.Fatalf("trailer = %+v", last)
	}
}

func TestExplainEndpoint(t *testing.T) {
	_, ts := demoServer(t, Config{})
	resp, data := postJSON(t, ts.URL+"/explain",
		queryRequest{Tenant: "acme", Query: `SELECT * FROM R, TWIG '/invoices/orderLine[orderID]/price'`})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var qr queryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Text == "" {
		t.Fatal("empty plan text")
	}
}

func TestExplainStatementBypassesCache(t *testing.T) {
	srv, ts := demoServer(t, Config{})
	resp, data := postJSON(t, ts.URL+"/query",
		queryRequest{Tenant: "acme", Query: `EXPLAIN SELECT * FROM R, TWIG '/invoices/orderLine[orderID]/price'`})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var qr queryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Cache != "bypass" || qr.Text == "" {
		t.Fatalf("cache=%q text=%q, want bypass with plan text", qr.Cache, qr.Text)
	}
	tn, _ := srv.Tenant("acme")
	if st := tn.prep.stats(); st.Entries != 0 {
		t.Fatalf("EXPLAIN entered the prep cache: %+v", st)
	}
}

func TestTenantsEndpoint(t *testing.T) {
	_, ts := demoServer(t, Config{})
	// Touch one tenant so its counters move.
	postJSON(t, ts.URL+"/query", queryRequest{Tenant: "acme", Query: "SELECT * FROM R"})
	resp, err := http.Get(ts.URL + "/tenants")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var sums []TenantSummary
	if err := json.Unmarshal(data, &sums); err != nil {
		t.Fatal(err)
	}
	if len(sums) != 2 || sums[0].Name != "acme" || sums[1].Name != "globex" {
		t.Fatalf("summaries = %+v", sums)
	}
	if sums[0].Admission.Admitted != 1 || sums[1].Admission.Admitted != 0 {
		t.Fatalf("admitted: acme=%d globex=%d", sums[0].Admission.Admitted, sums[1].Admission.Admitted)
	}
	if len(sums[0].Tables) == 0 || len(sums[0].Docs) == 0 {
		t.Fatalf("acme summary missing schema: %+v", sums[0])
	}
}

func TestTenantDebugSurfaces(t *testing.T) {
	_, ts := demoServer(t, Config{})
	postJSON(t, ts.URL+"/query", queryRequest{Tenant: "acme", Query: "SELECT * FROM R"})

	resp, err := http.Get(ts.URL + "/tenants/acme/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if err := obs.CheckText(bytes.NewReader(body)); err != nil {
		t.Fatalf("metrics lint: %v\n%s", err, body)
	}
	if !bytes.Contains(body, []byte("xmserve_requests_total 1")) {
		t.Fatalf("metrics missing request counter:\n%s", body)
	}

	resp, err = http.Get(ts.URL + "/tenants/acme/debug/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("slowlog status %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/tenants/acme/debug/catalog")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var snap CatalogSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("catalog snapshot: %v\n%s", err, data)
	}
	if snap.Tenant != "acme" || snap.Prepared.Capacity == 0 {
		t.Fatalf("snapshot = %+v", snap)
	}

	resp, err = http.Get(ts.URL + "/tenants/nope/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown tenant debug status %d", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := demoServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestAdmissionOverflow429(t *testing.T) {
	srv := New(Config{})
	db, err := DemoDatabase(4)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := srv.AddTenantConfig("tight", db, TenantConfig{MaxConcurrent: 1, MaxQueue: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Occupy the single slot directly.
	release, err := tn.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Fill the one queue spot with a request that blocks in admission.
	queued := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.URL+"/query", queryRequest{Query: "SELECT * FROM R"})
		queued <- resp.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for tn.pending.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("queued request never showed up in pending")
		}
		time.Sleep(time.Millisecond)
	}

	// Queue full: the next request must bounce with 429 + Retry-After.
	resp, data := postJSON(t, ts.URL+"/query", queryRequest{Query: "SELECT * FROM R"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%s)", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var er errorResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatal(err)
	}
	if er.Code != "overloaded" {
		t.Fatalf("code = %q", er.Code)
	}

	release()
	if status := <-queued; status != http.StatusOK {
		t.Fatalf("queued request finished with %d", status)
	}
	if got := tn.admissionStats().Rejected; got != 1 {
		t.Fatalf("rejected = %d", got)
	}
}

func TestDeadlineReturnsPartialResult(t *testing.T) {
	srv := New(Config{})
	db, err := DemoDatabase(64) // G1 ⋈ G2 fans out to 262144 rows
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.AddTenant("deadline", db); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Full run first: how long the heavy query takes unconstrained.
	start := time.Now()
	resp, data := postJSON(t, ts.URL+"/query", queryRequest{Query: DemoHeavyQuery()})
	full := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("full run status %d: %s", resp.StatusCode, data)
	}
	var fullQR queryResponse
	if err := json.Unmarshal(data, &fullQR); err != nil {
		t.Fatal(err)
	}
	if fullQR.Cancelled || len(fullQR.Rows) != 64*64*64 {
		t.Fatalf("full run: cancelled=%v rows=%d", fullQR.Cancelled, len(fullQR.Rows))
	}

	// Now with a deadline far below the full runtime.
	req, err := http.NewRequest("POST", ts.URL+"/query", strings.NewReader(DemoHeavyQuery()))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Deadline-Ms", "1")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deadline run status %d: %s", resp.StatusCode, data)
	}
	var qr queryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatal(err)
	}
	if !qr.Cancelled {
		t.Fatalf("1ms deadline on a %v query did not cancel (rows=%d)", full, len(qr.Rows))
	}
	if len(qr.Rows) >= 64*64*64 {
		t.Fatal("cancelled run returned the full result")
	}
	if qr.Stats == nil || !qr.Stats.Cancelled {
		t.Fatalf("stats = %+v, want Cancelled", qr.Stats)
	}
}

// TestDeadlineOnExplainAnalyze: the bypass leg (EXPLAIN ANALYZE is not
// preparable) must honour a deadline like the cached leg does — partial
// statistics and the span tree come back with cancelled:true, and the run
// fans out over the tenant's workers, so the morsel scheduler's deadline
// gate is what stops it.
func TestDeadlineOnExplainAnalyze(t *testing.T) {
	srv := New(Config{Parallelism: 2})
	db, err := DemoDatabase(64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.AddTenant("deadline", db); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Whether the gate or the context watcher notices the deadline first
	// is a race the gate wins once it has a morsel-time estimate; a few
	// budgets make sure one run gets that far.
	gateStopped := false
	for _, ms := range []string{"10", "20", "40", "80"} {
		req, err := http.NewRequest("POST", ts.URL+"/query", strings.NewReader("EXPLAIN ANALYZE "+DemoHeavyQuery()))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Deadline-Ms", ms)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("deadline %sms: status %d: %s", ms, resp.StatusCode, data)
		}
		var qr queryResponse
		if err := json.Unmarshal(data, &qr); err != nil {
			t.Fatal(err)
		}
		if !qr.Cancelled || qr.Cache != "bypass" {
			t.Fatalf("deadline %sms: cancelled=%v cache=%q", ms, qr.Cancelled, qr.Cache)
		}
		if qr.Stats == nil || !qr.Stats.Cancelled {
			t.Fatalf("deadline %sms: stats = %+v, want Cancelled", ms, qr.Stats)
		}
		for _, want := range []string{"QUERY ANALYZE", "execute"} {
			if !strings.Contains(qr.Text, want) {
				t.Fatalf("deadline %sms: span text lacks %q:\n%s", ms, want, qr.Text)
			}
		}
		if qr.DeadlineStops > 0 {
			gateStopped = true
			break
		}
	}
	if !gateStopped {
		t.Fatal("no run was stopped by the deadline gate (deadline_stops stayed 0)")
	}
}

func TestDefaultDeadlineApplies(t *testing.T) {
	srv := New(Config{DefaultDeadline: time.Millisecond})
	db, err := DemoDatabase(64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.AddTenant("d", db); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, data := postJSON(t, ts.URL+"/query", queryRequest{Query: DemoHeavyQuery()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var qr queryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatal(err)
	}
	if !qr.Cancelled {
		t.Fatal("server default deadline did not apply")
	}
}

func TestMaxDeadlineClamps(t *testing.T) {
	srv := New(Config{MaxDeadline: time.Millisecond})
	db, err := DemoDatabase(64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.AddTenant("d", db); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	// The client asks for a generous minute; MaxDeadline clamps it to 1ms.
	resp, data := postJSON(t, ts.URL+"/query", queryRequest{Query: DemoHeavyQuery(), DeadlineMS: 60000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var qr queryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatal(err)
	}
	if !qr.Cancelled {
		t.Fatal("MaxDeadline clamp did not apply")
	}
}

func TestAddTenantValidation(t *testing.T) {
	srv := New(Config{})
	db, err := DemoDatabase(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.AddTenant("", db); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := srv.AddTenant("a/b", db); err == nil {
		t.Fatal("name with slash accepted")
	}
	if _, err := srv.AddTenant("ok", db); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.AddTenant("ok", db); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestPrepCacheLRUEviction(t *testing.T) {
	srv := New(Config{})
	db, err := DemoDatabase(4)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := srv.AddTenantConfig("lru", db, TenantConfig{PrepCacheSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for i := 0; i < 5; i++ {
		resp, data := postJSON(t, ts.URL+"/query", queryRequest{Query: DemoColdQuery(i)})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cold %d: status %d: %s", i, resp.StatusCode, data)
		}
	}
	st := tn.prep.stats()
	if st.Entries != 2 || st.Misses != 5 || st.Hits != 0 {
		t.Fatalf("cache stats after 5 distinct statements, capacity 2: %+v", st)
	}
}

// spacedServer serves one tenant holding T(x, y) = {("a b", "c"), ("a",
// "b c")}: two rows whose cells, joined with spaces, read the same.
func spacedServer(t *testing.T) *httptest.Server {
	t.Helper()
	db := xmjoin.NewDatabase()
	if err := db.AddTableRows("T", []string{"x", "y"}, [][]string{{"a b", "c"}, {"a", "b c"}}); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{})
	if _, err := srv.AddTenant("spaced", db); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

// queryWithDeadline posts a raw statement with an X-Deadline-Ms header
// and decodes the 200 answer.
func queryWithDeadline(t *testing.T, url, query, deadlineMS string) queryResponse {
	t.Helper()
	req, err := http.NewRequest("POST", url+"/query", strings.NewReader(query))
	if err != nil {
		t.Fatal(err)
	}
	if deadlineMS != "" {
		req.Header.Set("X-Deadline-Ms", deadlineMS)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", query, resp.StatusCode, data)
	}
	var qr queryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatal(err)
	}
	return qr
}

// TestQueryKeepsRowsDifferingInSpaces: distinct rows whose cells only
// regroup the same characters around a space are both answered.
func TestQueryKeepsRowsDifferingInSpaces(t *testing.T) {
	ts := spacedServer(t)
	for q, want := range map[string][][]string{
		`SELECT * FROM T`:    {{"a", "b c"}, {"a b", "c"}},
		`SELECT x, y FROM T`: {{"a", "b c"}, {"a b", "c"}},
		`SELECT y, x FROM T`: {{"b c", "a"}, {"c", "a b"}},
	} {
		if qr := queryWithDeadline(t, ts.URL, q, ""); !reflect.DeepEqual(qr.Rows, want) {
			t.Errorf("%s: rows %q, want %q", q, qr.Rows, want)
		}
	}
}

// TestDeadlineCoversPostJoinTail: a join that finishes in time but whose
// post-join work outlasts the deadline is answered with every row and
// "cancelled": true, the shape a mid-join expiry has.
func TestDeadlineCoversPostJoinTail(t *testing.T) {
	ts := spacedServer(t)
	faultpoint.Install(faultpoint.Rule{Name: "mmql.finish", Sleep: 50 * time.Millisecond})
	defer faultpoint.Reset()
	qr := queryWithDeadline(t, ts.URL, `SELECT * FROM T`, "10")
	if faultpoint.Hits("mmql.finish") == 0 {
		t.Fatal("the post-join tail was never reached")
	}
	if !qr.Cancelled || len(qr.Rows) != 2 {
		t.Fatalf("cancelled=%v rows=%q, want cancelled with both rows", qr.Cancelled, qr.Rows)
	}
	if qr.Stats == nil || !qr.Stats.Cancelled {
		t.Fatalf("stats = %+v, want Cancelled", qr.Stats)
	}
}

func TestStreamWithDeadlineReportsCancelledTrailer(t *testing.T) {
	srv := New(Config{})
	db, err := DemoDatabase(64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.AddTenant("d", db); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	req, err := http.NewRequest("POST", ts.URL+"/stream", strings.NewReader(DemoHeavyQuery()))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Deadline-Ms", "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	var last streamChunk
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatalf("trailer: %v\n%s", err, lines[len(lines)-1])
	}
	if !last.Done || !last.Cancelled {
		t.Fatalf("trailer = %+v, want done+cancelled", last)
	}
	if last.RowCount >= 64*64*64 {
		t.Fatal("cancelled stream delivered the full result")
	}
}

// postStream POSTs query to /stream for tenant d, with an X-Deadline-Ms
// header when deadlineMS is not empty, and returns the status, the content
// type and the body.
func postStream(t *testing.T, url, query, deadlineMS string) (int, string, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", url+"/stream", strings.NewReader(query))
	if err != nil {
		t.Error(err)
		return 0, "", nil
	}
	req.Header.Set("X-Tenant", "d")
	if deadlineMS != "" {
		req.Header.Set("X-Deadline-Ms", deadlineMS)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Error(err)
		return 0, "", nil
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("Content-Type"), data
}

// checkCancelledStream fails unless a /stream answer is an empty stream
// ending in a done+cancelled trailer with the given cache state.
func checkCancelledStream(t *testing.T, status int, ctype string, data []byte, cache string) {
	t.Helper()
	if status != http.StatusOK || ctype != "application/x-ndjson" {
		t.Fatalf("status %d, content type %q: %s", status, ctype, data)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want a header and a trailer:\n%s", len(lines), data)
	}
	var last streamChunk
	if err := json.Unmarshal(lines[1], &last); err != nil {
		t.Fatalf("trailer: %v\n%s", err, lines[1])
	}
	if !last.Done || !last.Cancelled || last.Cache != cache || last.RowCount != 0 {
		t.Fatalf("trailer = %+v, want done+cancelled with cache %q and no rows", last, cache)
	}
}

// TestStreamDeadlineInAdmissionQueue: a /stream request whose deadline
// expires while it waits for a slot still answers in /stream's shape — an
// NDJSON header and a done+cancelled trailer — and counts as a deadline
// response, like a run pre-empted mid-stream.
func TestStreamDeadlineInAdmissionQueue(t *testing.T) {
	srv := New(Config{})
	db, err := DemoDatabase(4)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := srv.AddTenantConfig("d", db, TenantConfig{MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	// Occupy the only slot, so the request can only wait out its deadline.
	release, err := tn.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	status, ctype, data := postStream(t, ts.URL, "SELECT * FROM R", "5")
	checkCancelledStream(t, status, ctype, data, "none")
	if got := tn.mDeadline.Value(); got != 1 {
		t.Fatalf("xmserve_deadline_responses_total = %d, want 1", got)
	}
}

// TestStreamPrepareCancelledByOwnDeadlineOnly: a /stream request whose
// deadline ends while its statement is prepared gets the empty cancelled
// stream. A request without a deadline that shared that prepare through
// the statement cache gets the cancellation as an error, not as a
// deadline response of its own.
func TestStreamPrepareCancelledByOwnDeadlineOnly(t *testing.T) {
	srv := New(Config{})
	db, err := DemoDatabase(4)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := srv.AddTenantConfig("d", db, TenantConfig{MaxConcurrent: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	faultpoint.Install(faultpoint.Rule{Name: "mmql.prepare", Sleep: 300 * time.Millisecond})
	defer faultpoint.Reset()
	type answer struct {
		status int
		ctype  string
		data   []byte
	}
	first := make(chan answer, 1)
	go func() {
		status, ctype, data := postStream(t, ts.URL, "SELECT * FROM R", "10")
		first <- answer{status, ctype, data}
	}()
	for faultpoint.Hits("mmql.prepare") == 0 {
		time.Sleep(time.Millisecond)
	}
	// The first request is inside its prepare: this one waits on it.
	status, _, data := postStream(t, ts.URL, "SELECT * FROM R", "")
	if status != http.StatusBadRequest {
		t.Fatalf("request sharing a cancelled prepare: status %d, want 400: %s", status, data)
	}
	a := <-first
	checkCancelledStream(t, a.status, a.ctype, a.data, "miss")
	if got := tn.mDeadline.Value(); got != 1 {
		t.Fatalf("xmserve_deadline_responses_total = %d, want 1", got)
	}
	if got := tn.mErrors.Value(); got != 1 {
		t.Fatalf("xmserve_request_errors_total = %d, want 1", got)
	}
	if got := faultpoint.Hits("mmql.prepare"); got != 1 {
		t.Fatalf("prepares = %d, want 1 shared by both requests", got)
	}
}

func BenchmarkQueryWarm(b *testing.B) {
	srv := New(Config{})
	db, err := DemoDatabase(16)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := srv.AddTenant("bench", db); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	body, _ := json.Marshal(queryRequest{Query: `SELECT userID, price FROM R, TWIG '/invoices/orderLine[orderID]/price'`})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}
