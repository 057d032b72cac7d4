package xmjoin

// Benchmarks for the shared index catalog and prepared queries — the
// serving-path numbers:
//
//   - BenchmarkColdCatalogExec    — every iteration resets the catalog and
//     assembles the query from scratch: the per-query index cost a process
//     without sharing pays on every call (the pre-catalog behaviour).
//   - BenchmarkWarmQueryExec      — a fresh Query per iteration against a
//     warm catalog: plan + atom assembly still run, index builds do not.
//   - BenchmarkPreparedWarmExec   — the serving shape: one PreparedQuery,
//     Execute per iteration; zero plan, atom, or index work.
//
// Run: go test -run NONE -bench 'Cold|Warm' -cpu 1,4 -benchmem .

import (
	"fmt"
	"strings"
	"testing"
)

const benchPattern = "/catalog/shop//item[id][cat]/price"

func benchServingDB(b testing.TB) *Database {
	b.Helper()
	var sb strings.Builder
	sb.WriteString("<catalog>")
	const shops, itemsPer = 40, 60
	for s := 0; s < shops; s++ {
		fmt.Fprintf(&sb, "<shop><name>s%d</name>", s)
		if s%2 == 1 {
			fmt.Fprintf(&sb, "<shop><name>n%d</name>", s)
		}
		for i := 0; i < itemsPer; i++ {
			fmt.Fprintf(&sb, "<item><id>i%d</id><cat>c%d</cat><price>%d</price></item>",
				(s*itemsPer+i)%97, i%11, 10+(s+i)%23)
		}
		if s%2 == 1 {
			sb.WriteString("</shop>")
		}
		sb.WriteString("</shop>")
	}
	sb.WriteString("</catalog>")

	db := NewDatabase()
	if err := db.LoadXMLString(sb.String()); err != nil {
		b.Fatal(err)
	}
	var r, s [][]string
	for i := 0; i < 97; i++ {
		r = append(r, []string{fmt.Sprintf("i%d", i), fmt.Sprintf("u%d", i%17)})
	}
	for c := 0; c < 11; c++ {
		s = append(s, []string{fmt.Sprintf("c%d", c), fmt.Sprintf("r%d", c%3)})
	}
	if err := db.AddTableRows("R", []string{"id", "user"}, r); err != nil {
		b.Fatal(err)
	}
	if err := db.AddTableRows("S", []string{"cat", "region"}, s); err != nil {
		b.Fatal(err)
	}
	return db
}

func BenchmarkColdCatalogExec(b *testing.B) {
	db := benchServingDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.ResetCatalog()
		q, err := db.Query(benchPattern, "R", "S")
		if err != nil {
			b.Fatal(err)
		}
		res, err := q.ExecXJoin()
		if err != nil {
			b.Fatal(err)
		}
		if res.Len() == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkWarmQueryExec(b *testing.B) {
	db := benchServingDB(b)
	// Warm the catalog once.
	if q, err := db.Query(benchPattern, "R", "S"); err != nil {
		b.Fatal(err)
	} else if _, err := q.ExecXJoin(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := db.Query(benchPattern, "R", "S")
		if err != nil {
			b.Fatal(err)
		}
		res, err := q.ExecXJoin()
		if err != nil {
			b.Fatal(err)
		}
		if res.Len() == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkPreparedWarmExec(b *testing.B) {
	db := benchServingDB(b)
	p, err := db.Prepare(benchPattern, "R", "S")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := p.Execute(); err != nil { // warm-up: build everything once
		b.Fatal(err)
	}
	before := db.Catalog().Stats().Misses
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := p.Execute()
		if err != nil {
			b.Fatal(err)
		}
		if res.Len() == 0 {
			b.Fatal("empty result")
		}
	}
	b.StopTimer()
	if after := db.Catalog().Stats().Misses; after != before {
		b.Fatalf("warm executions built indexes: misses %d -> %d", before, after)
	}
}

// The Limit-1 pair isolates index cost from join/output cost: a selective
// serving request pays almost nothing warm, while a cold catalog pays the
// full per-query index build before the first answer.
func BenchmarkColdCatalogLimit1(b *testing.B) {
	db := benchServingDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.ResetCatalog()
		q, err := db.Query(benchPattern, "R", "S")
		if err != nil {
			b.Fatal(err)
		}
		res, err := q.WithLimit(1).ExecXJoin()
		if err != nil {
			b.Fatal(err)
		}
		if res.Len() != 1 {
			b.Fatal("limited result wrong")
		}
	}
}

func BenchmarkPreparedWarmLimit1(b *testing.B) {
	db := benchServingDB(b)
	p, err := db.Prepare(benchPattern, "R", "S")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := p.Execute(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := p.Execute(ExecOptions{Limit: 1})
		if err != nil {
			b.Fatal(err)
		}
		if res.Len() != 1 {
			b.Fatal("limited result wrong")
		}
	}
}

// TestPreparedWarmLimit1Allocs pins the allocations of a warm prepared
// LIMIT 1 execution, BenchmarkPreparedWarmLimit1's case. A run binds its
// XML atoms into one backing array per kind and no warm lookup allocates,
// so the count does not grow with the atom count.
func TestPreparedWarmLimit1Allocs(t *testing.T) {
	if raceEnabled {
		t.Skip("counts allocations; the race detector adds its own")
	}
	db := benchServingDB(t)
	p, err := db.Prepare(benchPattern, "R", "S")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		res, err := p.Execute(ExecOptions{Limit: 1})
		if err != nil || res.Len() != 1 {
			t.Fatalf("warm LIMIT 1 run: %v, %d rows", err, res.Len())
		}
	})
	const ceiling = 36
	if allocs > ceiling {
		t.Fatalf("a warm prepared LIMIT 1 run allocates %.0f times, ceiling %d", allocs, ceiling)
	}
}
