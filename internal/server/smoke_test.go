package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestXmserveBinarySmoke is the end-to-end smoke test CI runs: build the
// real xmserve binary, start it on a free port, drive it over actual
// HTTP — a normal query, a deadline-exceeded partial answer, an
// admission-rejected 429 — validate its /metrics exposition with
// obs.CheckText, and shut it down gracefully with SIGTERM.
func TestXmserveBinarySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs a binary")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not in PATH")
	}
	bin := filepath.Join(t.TempDir(), "xmserve")
	build := exec.Command(gobin, "build", "-o", bin, "repro/cmd/xmserve")
	build.Dir = "../.." // module root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// Tight admission on purpose: 1 slot + 1 queue spot makes the 429
	// path reachable with three concurrent requests.
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-demo", "1", "-scale", "64", "-maxconc", "1", "-maxqueue", "1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = nil
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The first stdout line advertises the bound address.
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("no startup line: %v", sc.Err())
	}
	line := sc.Text()
	i := strings.Index(line, "http://")
	j := strings.Index(line, " (")
	if i < 0 || j < i {
		t.Fatalf("unparseable startup line %q", line)
	}
	base := line[i:j]
	go io.Copy(io.Discard, stdout)

	// 1. A normal query answers rows and misses, then hits, the cache.
	for _, wantCache := range []string{"miss", "hit"} {
		qr := smokeQuery(t, base, `SELECT userID, price FROM R, TWIG '/invoices/orderLine[orderID]/price'`, 0)
		if qr.Cache != wantCache || len(qr.Rows) == 0 || qr.Cancelled {
			t.Fatalf("warm round: cache=%q rows=%d cancelled=%v, want %s", qr.Cache, len(qr.Rows), qr.Cancelled, wantCache)
		}
	}

	// 2. A tight deadline on the heavy grid join returns a partial
	// answer, not an error.
	qr := smokeQuery(t, base, `SELECT * FROM G1, G2`, 1)
	if !qr.Cancelled {
		t.Fatal("1ms deadline on the heavy join was not cancelled")
	}
	if len(qr.Rows) >= 64*64*64 {
		t.Fatal("cancelled run returned the full result")
	}

	// 3. Overrun the admission queue: of three concurrent heavy
	// requests against 1 slot + 1 queue spot, at least one must 429.
	var mu sync.Mutex
	codes := map[int]int{}
	var wg sync.WaitGroup
	for k := 0; k < 3; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, _ := http.NewRequest("POST", base+"/query", strings.NewReader(`SELECT * FROM G1, G2`))
			req.Header.Set("X-Deadline-Ms", "30000")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			mu.Lock()
			codes[resp.StatusCode]++
			mu.Unlock()
		}()
		// Send the next request only once the server has counted this
		// one as pending, so the first holds the slot and the second the
		// queue spot when the third arrives. A fixed sleep here would
		// race against how fast the heavy join runs.
		if k < 2 {
			smokeWaitPending(t, base, int64(k+1))
		}
	}
	wg.Wait()
	if codes[http.StatusTooManyRequests] == 0 {
		t.Fatalf("no 429 from 3 concurrent heavy requests at maxconc=1 maxqueue=1: %v", codes)
	}

	// 4. The tenant's metrics exposition passes the Prometheus
	// text-format linter and shows the deadline response.
	resp, err := http.Get(base + "/tenants/demo0/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if err := obs.CheckText(bytes.NewReader(body)); err != nil {
		t.Fatalf("metrics lint: %v", err)
	}
	for _, want := range []string{"xmserve_requests_total", "xmserve_deadline_responses_total", "xmserve_admission_rejected_total"} {
		if !bytes.Contains(body, []byte(want)) {
			t.Fatalf("metrics missing %s:\n%s", want, body)
		}
	}

	// 5. SIGTERM shuts the server down cleanly.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("xmserve exit: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("xmserve did not exit after SIGTERM")
	}
}

// smokeWaitPending polls GET /tenants until tenant demo0 counts at least
// want requests as pending (holding a slot or queued).
func smokeWaitPending(t *testing.T, base string, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/tenants")
		if err != nil {
			t.Fatal(err)
		}
		var sums []TenantSummary
		err = json.NewDecoder(resp.Body).Decode(&sums)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range sums {
			if s.Name == "demo0" && s.Admission.Pending >= want {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("demo0 never reached %d pending requests: %+v", want, sums)
		}
		time.Sleep(time.Millisecond)
	}
}

func smokeQuery(t *testing.T, base, query string, deadlineMS int) queryResponse {
	t.Helper()
	req, err := http.NewRequest("POST", base+"/query", strings.NewReader(query))
	if err != nil {
		t.Fatal(err)
	}
	if deadlineMS > 0 {
		req.Header.Set("X-Deadline-Ms", "1")
	}
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
	return qr
}
