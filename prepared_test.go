package xmjoin

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// servingXML builds a medium document with nested shops (so // edges are
// real A-D edges with nesting) and repeated item ids/cats that join the
// tables.
func servingXML(shops, itemsPer int) string {
	var sb strings.Builder
	sb.WriteString("<catalog>")
	for s := 0; s < shops; s++ {
		sb.WriteString("<shop><name>s")
		fmt.Fprint(&sb, s)
		sb.WriteString("</name>")
		if s%2 == 1 {
			// A nested shop: items below belong to both.
			sb.WriteString("<shop><name>n")
			fmt.Fprint(&sb, s)
			sb.WriteString("</name>")
		}
		for i := 0; i < itemsPer; i++ {
			fmt.Fprintf(&sb, "<item><id>i%d</id><cat>c%d</cat><price>%d</price></item>",
				(s*itemsPer+i)%13, i%4, 10+(s+i)%7)
		}
		if s%2 == 1 {
			sb.WriteString("</shop>")
		}
		sb.WriteString("</shop>")
	}
	sb.WriteString("</catalog>")
	return sb.String()
}

func servingRows() (r, s [][]string) {
	for i := 0; i < 13; i++ {
		r = append(r, []string{fmt.Sprintf("i%d", i), fmt.Sprintf("u%d", i%5)})
	}
	for c := 0; c < 4; c++ {
		s = append(s, []string{fmt.Sprintf("c%d", c), fmt.Sprintf("r%d", c%2)})
	}
	return r, s
}

func servingDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase()
	if err := db.LoadXMLString(servingXML(6, 8)); err != nil {
		t.Fatal(err)
	}
	r, s := servingRows()
	if err := db.AddTableRows("R", []string{"id", "user"}, r); err != nil {
		t.Fatal(err)
	}
	if err := db.AddTableRows("S", []string{"cat", "region"}, s); err != nil {
		t.Fatal(err)
	}
	return db
}

// decodedRows renders a result as sorted decoded strings, comparable
// across databases with different dictionaries.
func decodedRows(res *Result) []string {
	rows := make([]string, res.Len())
	for i := range rows {
		rows[i] = strings.Join(res.Row(i), "|")
	}
	sort.Strings(rows)
	return rows
}

func rowsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPreparedWarmZeroIndexBuilds is the acceptance check for the shared
// catalog: the second execution of a prepared query must perform zero
// index-build work — the cumulative CatalogMisses counter does not move —
// while catalog hits keep accumulating.
func TestPreparedWarmZeroIndexBuilds(t *testing.T) {
	db := servingDB(t)
	p, err := db.Prepare("/catalog/shop//item[id][cat]/price", "R", "S")
	if err != nil {
		t.Fatal(err)
	}
	cold, err := p.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if cold.Len() == 0 {
		t.Fatal("empty result; workload broken")
	}
	cs := cold.Stats()
	if cs.CatalogMisses == 0 {
		t.Fatalf("cold run registered no catalog builds: %+v", cs)
	}
	warm, err := p.Execute()
	if err != nil {
		t.Fatal(err)
	}
	ws := warm.Stats()
	if ws.CatalogMisses != cs.CatalogMisses {
		t.Fatalf("warm run built indexes: misses %d -> %d", cs.CatalogMisses, ws.CatalogMisses)
	}
	if ws.CatalogHits <= cs.CatalogHits {
		t.Fatalf("warm run recorded no catalog reuse: hits %d -> %d", cs.CatalogHits, ws.CatalogHits)
	}
	if !rowsEqual(decodedRows(cold), decodedRows(warm)) {
		t.Fatal("warm result differs from cold")
	}
	// A second prepared query over the same sources stays warm too.
	p2, err := db.Prepare("//item[id]/price", "R")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p2.Execute(); err != nil {
		t.Fatal(err)
	}
}

// TestPreparedModesAgreeSharedCatalog: serial and morsel-parallel
// executions under all three A-D modes must produce identical results
// while borrowing from one shared catalog — including after a forced
// eviction of everything resident.
func TestPreparedModesAgreeSharedCatalog(t *testing.T) {
	db := servingDB(t)
	const pattern = "/catalog/shop//item[id][cat]/price"

	var prepared []*PreparedQuery
	for _, mode := range []ADMode{ADLazy, ADPostHoc, ADMaterialized} {
		q, err := db.Query(pattern, "R", "S")
		if err != nil {
			t.Fatal(err)
		}
		p, err := q.WithAD(mode).Prepare()
		if err != nil {
			t.Fatal(err)
		}
		prepared = append(prepared, p)
	}
	run := func(tag string) []string {
		t.Helper()
		var want []string
		for i, p := range prepared {
			for _, workers := range []int{0, 4} {
				res, err := p.Execute(ExecOptions{Parallelism: workers})
				if err != nil {
					t.Fatalf("%s config %d workers %d: %v", tag, i, workers, err)
				}
				got := decodedRows(res)
				if want == nil {
					want = got
				} else if !rowsEqual(got, want) {
					t.Fatalf("%s config %d workers %d diverged", tag, i, workers)
				}
			}
		}
		return want
	}
	before := run("cold")
	if len(before) == 0 {
		t.Fatal("empty result; workload broken")
	}

	// Evict everything, then re-run every configuration warm-after-eviction.
	db.Catalog().SetBudget(1)
	evicted := db.Catalog().Stats()
	if evicted.Evictions == 0 {
		t.Fatalf("tiny budget evicted nothing: %+v", evicted)
	}
	after := run("post-eviction")
	if !rowsEqual(before, after) {
		t.Fatal("results changed after eviction")
	}
}

// TestConcurrentPreparedSharedCatalog is the cross-query concurrency
// satellite: goroutines executing distinct prepared queries against one
// shared catalog (run under -race in CI), with eviction forced mid-run by
// a tiny byte budget, every result checked against an oracle computed with
// private per-query indexes (a standalone database).
func TestConcurrentPreparedSharedCatalog(t *testing.T) {
	type job struct {
		twig   string
		tables []string
	}
	jobs := []job{
		{"/catalog/shop//item[id][cat]/price", []string{"R", "S"}},
		{"//item[id]/price", []string{"R"}},
		{"//shop//item[cat]", []string{"S"}},
		{"//item[id][cat]", []string{"R", "S"}},
		{"/catalog/shop/name", nil},
		{"//shop//item[id]/price", []string{"R"}},
	}

	// Oracles: one standalone database per job, nothing shared.
	oracles := make([][]string, len(jobs))
	for i, j := range jobs {
		odb := servingDB(t)
		oq, err := odb.Query(j.twig, j.tables...)
		if err != nil {
			t.Fatal(err)
		}
		ores, err := oq.ExecXJoin()
		if err != nil {
			t.Fatal(err)
		}
		oracles[i] = decodedRows(ores)
		if len(oracles[i]) == 0 {
			t.Fatalf("oracle %d empty; workload broken", i)
		}
	}

	db := servingDB(t)
	prepared := make([]*PreparedQuery, len(jobs))
	for i, j := range jobs {
		q, err := db.Query(j.twig, j.tables...)
		if err != nil {
			t.Fatal(err)
		}
		p, err := q.Prepare()
		if err != nil {
			t.Fatal(err)
		}
		prepared[i] = p
	}

	const iters = 15
	var wg sync.WaitGroup
	errs := make(chan string, len(jobs)*2)
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := prepared[i]
			for it := 0; it < iters; it++ {
				workers := 0
				if it%3 == 1 {
					workers = 4
				}
				res, err := p.Execute(ExecOptions{Parallelism: workers})
				if err != nil {
					errs <- fmt.Sprintf("job %d iter %d: %v", i, it, err)
					return
				}
				if !rowsEqual(decodedRows(res), oracles[i]) {
					errs <- fmt.Sprintf("job %d iter %d: diverged from oracle", i, it)
					return
				}
				if i == 0 && it%5 == 2 {
					// Force evictions mid-run, then lift the budget again.
					db.Catalog().SetBudget(64)
					db.Catalog().SetBudget(0)
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if s := db.Catalog().Stats(); s.Evictions == 0 {
		t.Fatalf("mid-run budget squeeze evicted nothing: %+v", s)
	}
}

// TestPreparedStreamAndExists covers the streaming and existence paths of
// a prepared query, plus per-call limits.
func TestPreparedStreamAndExists(t *testing.T) {
	db := servingDB(t)
	p, err := db.Prepare("//item[id]/price", "R")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Order()) == 0 || len(p.Attrs()) == 0 {
		t.Fatal("prepared plan empty")
	}
	n := 0
	if _, err := p.ExecuteStream(func(row []string) bool {
		if len(row) != len(p.Order()) {
			t.Fatalf("row width %d != order %d", len(row), len(p.Order()))
		}
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("stream yielded nothing")
	}
	ok, err := p.Exists()
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("Exists = false on non-empty result")
	}
	lim, err := p.Execute(ExecOptions{Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if lim.Len() != 1 {
		t.Fatalf("limited execution returned %d rows", lim.Len())
	}
	if plan, err := p.Explain(); err != nil || !strings.Contains(plan, "plan:") {
		t.Fatalf("Explain: %v\n%s", err, plan)
	}
	// A bad explicit order fails at Prepare, not Execute.
	q, err := db.Query("//item[id]/price", "R")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.WithOrder("nonsense").Prepare(); err == nil {
		t.Fatal("Prepare accepted an invalid order")
	}
}

// TestPreparedOrderIsACopy: a prepared plan freezes its own copy of the
// order passed to WithOrder, so a caller who changes that slice later
// changes neither the frozen order nor the columns of an execution.
func TestPreparedOrderIsACopy(t *testing.T) {
	db := figure1DB(t)
	q, err := db.Query("/invoices/orderLine[orderID][ISBN]/price", "R")
	if err != nil {
		t.Fatal(err)
	}
	order := q.Attrs()
	p, err := q.WithOrder(order...).Prepare()
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(order)
	order[0], order[1] = order[1], order[0]
	if got := p.Order(); !slices.Equal(got, want) {
		t.Fatalf("after the caller swapped two entries, Order() = %v, want %v", got, want)
	}
	res, err := p.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Attrs(); !slices.Equal(got, want) {
		t.Errorf("execution columns = %v, want %v", got, want)
	}
}
