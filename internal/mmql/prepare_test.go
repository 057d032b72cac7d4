package mmql

import (
	"context"
	"reflect"
	"testing"
)

// prepareEquivalenceQueries covers every residual-work combination the
// prepared path replays: projection, residual filters, aggregates, GROUP
// BY, LIMIT pushed and post-hoc, EXISTS with and without residuals.
var prepareEquivalenceQueries = []string{
	`SELECT * FROM R, TWIG '/invoices/orderLine[orderID]/price'`,
	`SELECT userID, price FROM R, TWIG '/invoices/orderLine[orderID]/price'`,
	`SELECT userID, price FROM R, TWIG '/invoices/orderLine[orderID]/price' WHERE userID = 'jack'`,
	`SELECT * FROM R, TWIG '/invoices/orderLine[orderID]/price' WHERE userID = 'jack'`,
	`SELECT * FROM R, TWIG '/invoices/orderLine[orderID]/price' LIMIT 1`,
	`SELECT userID FROM R, TWIG '/invoices/orderLine[orderID]/price' LIMIT 1`,
	`SELECT COUNT(*), MIN(price) FROM R, TWIG '/invoices/orderLine[orderID]/price'`,
	`SELECT userID, COUNT(*) FROM R, TWIG '/invoices/orderLine[orderID]/price' GROUP BY userID`,
	`EXISTS SELECT * FROM R, TWIG '/invoices/orderLine[orderID]/price'`,
	`EXISTS SELECT * FROM R, TWIG '/invoices/orderLine[orderID]/price' WHERE userID = 'nobody'`,
	`SELECT * FROM R, TWIG '/invoices/orderLine[orderID]/price' VIA hybrid`,
}

// TestPreparedMatchesRun: executing a Prepared must produce exactly
// RunString's output, warm or cold.
func TestPreparedMatchesRun(t *testing.T) {
	for _, src := range prepareEquivalenceQueries {
		db := testDB(t)
		want, err := RunString(db, src)
		if err != nil {
			t.Fatalf("%s: run: %v", src, err)
		}
		p, err := PrepareString(db, src)
		if err != nil {
			t.Fatalf("%s: prepare: %v", src, err)
		}
		for round := 0; round < 2; round++ { // cold, then warm
			got, err := p.ExecuteCtx(context.Background())
			if err != nil {
				t.Fatalf("%s: execute round %d: %v", src, round, err)
			}
			if !reflect.DeepEqual(got.Attrs, want.Attrs) || !reflect.DeepEqual(got.Rows, want.Rows) {
				t.Fatalf("%s round %d:\n got attrs=%v rows=%v\nwant attrs=%v rows=%v",
					src, round, got.Attrs, got.Rows, want.Attrs, want.Rows)
			}
		}
	}
}

// TestPreparedWarmSkipsCatalog: the second execution of a prepared
// statement must add zero catalog misses — the serving-layer cache's
// whole point.
func TestPreparedWarmSkipsCatalog(t *testing.T) {
	db := testDB(t)
	p, err := PrepareString(db, `SELECT userID, price FROM R, TWIG '/invoices/orderLine[orderID]/price'`)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := p.ExecuteCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	warm, err := p.ExecuteCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.CatalogMisses != cold.Stats.CatalogMisses {
		t.Fatalf("warm run built indexes: cold misses %d, warm misses %d",
			cold.Stats.CatalogMisses, warm.Stats.CatalogMisses)
	}
}

// TestPreparedRowsStreaming: the streaming cursor must deliver the same
// multiset of projected, filtered rows as the materialized path (order
// and dedup differ by contract — streaming skips selectOutput's sort and
// dedup).
func TestPreparedRowsStreaming(t *testing.T) {
	db := testDB(t)
	src := `SELECT userID, price FROM R, TWIG '/invoices/orderLine[orderID]/price' WHERE userID = 'jack'`
	p, err := PrepareString(db, src)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Statement().Streamable() {
		t.Fatal("plain SELECT should be streamable")
	}
	rows, err := p.Rows(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if got := rows.Columns(); !reflect.DeepEqual(got, []string{"userID", "price"}) {
		t.Fatalf("columns = %v", got)
	}
	seen := map[string]int{}
	for batch := rows.NextBatch(); batch != nil; batch = rows.NextBatch() {
		for _, row := range batch {
			if len(row) != 2 {
				t.Fatalf("row width %d: %v", len(row), row)
			}
			seen[row[0]+"|"+row[1]]++
		}
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen["jack|30"] == 0 {
		t.Fatalf("streamed rows = %v, want jack|30", seen)
	}
	if _, ok := rows.Stats(); !ok {
		t.Fatal("stats unavailable after exhausted stream")
	}
}

// TestPreparedRowsLimit: the cursor must stop the join once LIMIT rows
// left the filter/projection, even when the limit could not be pushed
// into the engine.
func TestPreparedRowsLimit(t *testing.T) {
	db := testDB(t)
	p, err := PrepareString(db, `SELECT userID FROM R, TWIG '/invoices/orderLine[orderID]/price' LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := p.Rows(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var n int
	for batch := rows.NextBatch(); batch != nil; batch = rows.NextBatch() {
		n += len(batch)
	}
	if n != 1 {
		t.Fatalf("LIMIT 1 streamed %d rows", n)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPreparedRejectsExplain: EXPLAIN statements describe one execution
// and must not enter a prepared-statement cache.
func TestPreparedRejectsExplain(t *testing.T) {
	db := testDB(t)
	for _, src := range []string{
		`EXPLAIN SELECT * FROM R, TWIG '/invoices/orderLine[orderID]/price'`,
		`SELECT * FROM R, TWIG '/invoices/orderLine[orderID]/price' VIA baseline`,
	} {
		if _, err := PrepareString(db, src); err == nil {
			t.Fatalf("%s: want prepare error", src)
		}
	}
}

// TestPreparedAggregateNotStreamable pins the Streamable contract.
func TestPreparedAggregateNotStreamable(t *testing.T) {
	db := testDB(t)
	p, err := PrepareString(db, `SELECT COUNT(*) FROM R, TWIG '/invoices/orderLine[orderID]/price'`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Statement().Streamable() {
		t.Fatal("aggregate should not be streamable")
	}
	if _, err := p.Rows(context.Background()); err == nil {
		t.Fatal("Rows on an aggregate: want error")
	}
}
