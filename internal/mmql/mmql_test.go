package mmql

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	xmjoin "repro"
)

func newRand() *rand.Rand { return rand.New(rand.NewSource(99)) }

const invoicesXML = `
<invoices>
  <orderLine>
    <orderID>10963</orderID>
    <ISBN>978-3-16-1</ISBN>
    <price>30</price>
  </orderLine>
  <orderLine>
    <orderID>20134</orderID>
    <ISBN>634-3-12-2</ISBN>
    <price>20</price>
  </orderLine>
</invoices>`

func testDB(t *testing.T) *xmjoin.Database {
	t.Helper()
	db := xmjoin.NewDatabase()
	if err := db.LoadXMLString(invoicesXML); err != nil {
		t.Fatal(err)
	}
	err := db.AddTableRows("R", []string{"orderID", "userID"}, [][]string{
		{"10963", "jack"}, {"20134", "tom"}, {"35768", "bob"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestParseBasics(t *testing.T) {
	st, err := Parse(`SELECT userID, price FROM R, TWIG '/invoices/orderLine[orderID]/price' WHERE userID = 'jack' VIA xjoin`)
	if err != nil {
		t.Fatal(err)
	}
	want := []SelectItem{{Attr: "userID"}, {Attr: "price"}}
	if !reflect.DeepEqual(st.Items, want) {
		t.Errorf("items = %v", st.Items)
	}
	if !reflect.DeepEqual(st.Tables, []string{"R"}) {
		t.Errorf("tables = %v", st.Tables)
	}
	if len(st.Twigs) != 1 || !strings.HasPrefix(st.Twigs[0].Pattern, "/invoices") {
		t.Errorf("twigs = %v", st.Twigs)
	}
	if len(st.Filters) != 1 || st.Filters[0] != (Filter{"userID", "jack"}) {
		t.Errorf("filters = %v", st.Filters)
	}
	if st.Algo != "xjoin" {
		t.Errorf("algo = %q", st.Algo)
	}
}

func TestParseStar(t *testing.T) {
	st, err := Parse(`select * from R`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Items != nil || len(st.Tables) != 1 {
		t.Errorf("star parse: %+v", st)
	}
}

func TestParseQuoteEscape(t *testing.T) {
	st, err := Parse(`SELECT * FROM R WHERE userID = 'O''Brien'`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Filters[0].Value != "O'Brien" {
		t.Errorf("escaped value = %q", st.Filters[0].Value)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"SELECT",
		"SELECT FROM R",
		"SELECT * FROM",
		"SELECT * FROM TWIG",
		"SELECT * FROM TWIG missing_quotes",
		"SELECT a b FROM R",
		"SELECT * FROM R WHERE",
		"SELECT * FROM R WHERE a",
		"SELECT * FROM R WHERE a =",
		"SELECT * FROM R WHERE a = b",
		"SELECT * FROM R VIA",
		"SELECT * FROM R VIA quantum",
		"SELECT * FROM R extra",
		"SELECT * FROM R WHERE a = 'x",
		"SELECT * FROM R; DROP",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestRunFigure1(t *testing.T) {
	db := testDB(t)
	res, err := RunString(db,
		`SELECT userID, ISBN, price FROM R, TWIG '/invoices/orderLine[orderID][ISBN]/price'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if got := strings.Join(res.Rows[0], "|"); got != "jack|978-3-16-1|30" {
		t.Errorf("row 0 = %s", got)
	}
}

func TestRunWhereAndVia(t *testing.T) {
	db := testDB(t)
	for _, via := range []string{"xjoin", "xjoinmat", "baseline"} {
		res, err := RunString(db,
			`SELECT userID FROM R, TWIG '/invoices/orderLine[orderID]/price' WHERE price = '20' VIA `+via)
		if err != nil {
			t.Fatalf("%s: %v", via, err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0] != "tom" {
			t.Fatalf("%s: rows = %v", via, res.Rows)
		}
	}
}

func TestRunMultiTwig(t *testing.T) {
	db := xmjoin.NewDatabase()
	err := db.LoadXMLString(`
<db>
  <orders><order><oid>1</oid><item>book</item></order></orders>
  <shipments><shipment><oid>1</oid><carrier>dhl</carrier></shipment></shipments>
</db>`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunString(db,
		`SELECT item, carrier FROM TWIG '//order[oid]/item', TWIG '//shipment[oid]/carrier'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || strings.Join(res.Rows[0], "|") != "book|dhl" {
		t.Fatalf("multi-twig rows = %v", res.Rows)
	}
}

func TestRunErrors(t *testing.T) {
	db := testDB(t)
	if _, err := RunString(db, `SELECT * FROM missing`); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := RunString(db, `SELECT nope FROM R`); err == nil {
		t.Error("unknown projection accepted")
	}
	if _, err := RunString(db, `SELECT * FROM R WHERE ghost = 'x'`); err == nil {
		t.Error("unknown WHERE attribute accepted")
	}
	if _, err := RunString(db, `SELECT * FROM TWIG '///'`); err == nil {
		t.Error("bad twig accepted")
	}
}

// TestViaADModes: every xjoin VIA variant must agree on the answers; the
// explicit post-hoc and materialized modes exercise the non-default A-D
// paths through the full mmql pipeline (//-twig so an A-D edge exists).
func TestViaADModes(t *testing.T) {
	db := testDB(t)
	base, err := RunString(db, `SELECT * FROM R, TWIG '//invoices//orderID'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Rows) == 0 {
		t.Fatal("base query returned no rows")
	}
	for _, via := range []string{"xjoin", "xjoinposthoc", "xjoinmat", "hybrid", "binary", "baseline"} {
		out, err := RunString(db, `SELECT * FROM R, TWIG '//invoices//orderID' VIA `+via)
		if err != nil {
			t.Fatalf("VIA %s: %v", via, err)
		}
		if !reflect.DeepEqual(out.Rows, base.Rows) {
			t.Errorf("VIA %s rows %v, want %v", via, out.Rows, base.Rows)
		}
	}
	// The spellings that are gone fail like any unknown name, and the
	// error lists the six accepted ones.
	const accepted = "want xjoin, xjoinposthoc, xjoinmat, hybrid, binary or baseline"
	for _, via := range []string{"nonsense", "xjoinplus", "xjoin+", "xjoin-hybrid"} {
		_, err := RunString(db, `SELECT * FROM R VIA `+via)
		if err == nil {
			t.Errorf("VIA %s accepted", via)
		} else if !strings.Contains(err.Error(), accepted) {
			t.Errorf("VIA %s: error %q does not list the accepted names", via, err)
		}
	}
}

func TestExplainStatement(t *testing.T) {
	db := testDB(t)
	st, err := Parse(`SELECT * FROM R, TWIG '/invoices/orderLine[orderID]/price' VIA xjoinmat`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Explain(db, st)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "plan: xjoin") || !strings.Contains(plan, "PA") {
		t.Errorf("plan missing pieces:\n%s", plan)
	}
}

func TestParseAggregates(t *testing.T) {
	st, err := Parse(`SELECT userID, COUNT(*), SUM(price), MIN(price), MAX(price) FROM R GROUP BY userID`)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Items) != 5 || !st.HasAggregates() {
		t.Fatalf("items = %v", st.Items)
	}
	if st.Items[1].Func != AggCount || st.Items[1].Attr != "*" {
		t.Errorf("count item = %v", st.Items[1])
	}
	if st.Items[2].Label() != "sum(price)" {
		t.Errorf("label = %q", st.Items[2].Label())
	}
	for _, bad := range []string{
		"SELECT COUNT(* FROM R",
		"SELECT COUNT() FROM R",
		"SELECT SUM(*) FROM R",
		"SELECT FROB(x) FROM R",
		"SELECT a, COUNT(*) FROM R",           // a not grouped
		"SELECT a FROM R GROUP BY",            // missing group cols
		"SELECT * FROM R GROUP BY a",          // * with GROUP BY
		"SELECT COUNT(*) FROM R GROUP BY a b", // junk
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestRunGroupBy(t *testing.T) {
	db := xmjoin.NewDatabase()
	if err := db.LoadXMLString(`
<shop>
  <sale><rep>ann</rep><amount>10</amount></sale>
  <sale><rep>ann</rep><amount>30</amount></sale>
  <sale><rep>bob</rep><amount>5</amount></sale>
</shop>`); err != nil {
		t.Fatal(err)
	}
	res, err := RunString(db,
		`SELECT rep, COUNT(*), SUM(amount), MIN(amount), MAX(amount) FROM TWIG '//sale[rep]/amount' GROUP BY rep`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("groups = %v", res.Rows)
	}
	if got := strings.Join(res.Rows[0], "|"); got != "ann|2|40|10|30" {
		t.Errorf("ann group = %s", got)
	}
	if got := strings.Join(res.Rows[1], "|"); got != "bob|1|5|5|5" {
		t.Errorf("bob group = %s", got)
	}
	// Whole-result aggregate without GROUP BY.
	res2, err := RunString(db, `SELECT COUNT(*), SUM(amount) FROM TWIG '//sale[rep]/amount'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Rows) != 1 || res2.Rows[0][0] != "3" || res2.Rows[0][1] != "45" {
		t.Errorf("global aggregate = %v", res2.Rows)
	}
	// SUM over non-numeric text errors.
	if _, err := RunString(db, `SELECT SUM(rep) FROM TWIG '//sale[rep]/amount'`); err == nil {
		t.Error("SUM over text accepted")
	}
}

func TestPushdownFilters(t *testing.T) {
	db := testDB(t)
	// The WHERE on price (a twig tag) must be pushed into the pattern.
	st, err := Parse(`SELECT userID FROM R, TWIG '/invoices/orderLine[orderID]/price' WHERE price = '30' AND userID = 'jack'`)
	if err != nil {
		t.Fatal(err)
	}
	twigs, remaining, err := pushdownFilters(st)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(twigs[0].Twig, `price="30"`) {
		t.Errorf("filter not pushed: %s", twigs[0].Twig)
	}
	if len(remaining) != 1 || remaining[0].Attr != "userID" {
		t.Errorf("remaining = %v", remaining)
	}
	res, err := Run(db, st)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "jack" {
		t.Errorf("pushdown result = %v", res.Rows)
	}
	// Contradictory double filter on one attribute yields empty, not error.
	res2, err := RunString(db,
		`SELECT userID FROM R, TWIG '/invoices/orderLine[orderID]/price="30"' WHERE price = '20'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Rows) != 0 {
		t.Errorf("contradiction produced rows: %v", res2.Rows)
	}
}

func TestOutputString(t *testing.T) {
	o := &Output{Attrs: []string{"a", "bb"}, Rows: [][]string{{"xxx", "1"}}}
	s := o.String()
	if !strings.Contains(s, "(1 rows)") || !strings.Contains(s, "xxx") {
		t.Errorf("render = %q", s)
	}
}

// TestParseNeverPanics: random token soup must never panic the parser.
func TestParseNeverPanics(t *testing.T) {
	words := []string{"SELECT", "FROM", "WHERE", "TWIG", "VIA", "GROUP", "BY", "AND",
		"COUNT", "SUM", "*", ",", "=", "(", ")", "'x'", "R", "a", "'", "''"}
	rng := newRand()
	for trial := 0; trial < 5000; trial++ {
		var parts []string
		for i, n := 0, 1+rng.Intn(10); i < n; i++ {
			parts = append(parts, words[rng.Intn(len(words))])
		}
		_, _ = Parse(strings.Join(parts, " "))
	}
}

// TestRunAcrossDocuments: TWIG ... IN 'name' joins twigs over different
// named documents.
func TestRunAcrossDocuments(t *testing.T) {
	db := xmjoin.NewDatabase()
	if err := db.LoadXMLNamedString("orders",
		`<orders><order><oid>7</oid><item>book</item></order></orders>`); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadXMLNamedString("ship",
		`<shipments><shipment><oid>7</oid><carrier>dhl</carrier></shipment></shipments>`); err != nil {
		t.Fatal(err)
	}
	res, err := RunString(db,
		`SELECT item, carrier FROM TWIG '//order[oid]/item' IN 'orders', TWIG '//shipment[oid]/carrier' IN 'ship'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || strings.Join(res.Rows[0], "|") != "book|dhl" {
		t.Fatalf("cross-doc rows = %v", res.Rows)
	}
	st, err := Parse(`SELECT * FROM TWIG '//a' IN 'orders'`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Twigs[0].Doc != "orders" {
		t.Errorf("doc = %q", st.Twigs[0].Doc)
	}
	if _, err := Parse(`SELECT * FROM TWIG '//a' IN missing_quotes`); err == nil {
		t.Error("unquoted IN accepted")
	}
	if _, err := RunString(db, `SELECT * FROM TWIG '//a' IN 'nope'`); err == nil {
		t.Error("unknown document accepted")
	}
}

func TestParseLimitAndExists(t *testing.T) {
	st, err := Parse(`SELECT * FROM R VIA xjoin LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Limit != 5 || st.Exists {
		t.Errorf("limit parse: %+v", st)
	}
	st, err = Parse(`EXISTS SELECT * FROM R, TWIG '//a[b]'`)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Exists || st.Limit != 0 {
		t.Errorf("exists parse: %+v", st)
	}
	for _, bad := range []string{
		`SELECT * FROM R LIMIT 0`,
		`SELECT * FROM R LIMIT x`,
		`SELECT * FROM R LIMIT`,
		`EXISTS SELECT * FROM R LIMIT 2`,
		`EXISTS SELECT * FROM R VIA baseline`,
		`EXISTS SELECT COUNT(*) FROM R`,
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestRunLimit(t *testing.T) {
	db := testDB(t)
	full, err := RunString(db, `SELECT * FROM R, TWIG '/invoices/orderLine[orderID]/price'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Rows) != 2 {
		t.Fatalf("full rows = %d", len(full.Rows))
	}
	// Engine-pushed limit (SELECT *, no residual filters).
	one, err := RunString(db, `SELECT * FROM R, TWIG '/invoices/orderLine[orderID]/price' LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Rows) != 1 {
		t.Fatalf("limited rows = %d", len(one.Rows))
	}
	// Post-hoc limit with a projection list: distinct rows must not be lost.
	users, err := RunString(db, `SELECT userID FROM R, TWIG '/invoices/orderLine[orderID]/price' LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	if len(users.Rows) != 2 {
		t.Fatalf("projected limited rows = %v", users.Rows)
	}
}

func TestRunExists(t *testing.T) {
	db := testDB(t)
	res, err := RunString(db, `EXISTS SELECT * FROM R, TWIG '/invoices/orderLine[orderID]/price'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attrs[0] != "exists" || res.Rows[0][0] != "true" {
		t.Fatalf("exists = %v", res.Rows)
	}
	// A residual (non-pushable) filter still answers correctly.
	res, err = RunString(db, `EXISTS SELECT * FROM R, TWIG '/invoices/orderLine[orderID]/price' WHERE userID = 'nobody'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != "false" {
		t.Fatalf("exists with filter = %v", res.Rows)
	}
	res, err = RunString(db, `EXISTS SELECT * FROM R, TWIG '/invoices/orderLine[orderID]/price' WHERE price = '9999'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != "false" {
		t.Fatalf("exists pushed-filter = %v", res.Rows)
	}
}

// TestRunCarriesStats: executed statements expose the engine run's
// statistics, including the shared catalog counters, so callers can tell
// warm from cold runs.
func TestRunCarriesStats(t *testing.T) {
	db := testDB(t)
	out1, err := RunString(db, `SELECT * FROM R, TWIG '/invoices/orderLine[orderID]/price'`)
	if err != nil {
		t.Fatal(err)
	}
	if out1.Stats == nil || out1.Stats.Algorithm == "" {
		t.Fatalf("missing stats: %+v", out1.Stats)
	}
	if out1.Stats.CatalogMisses == 0 {
		t.Fatalf("first run built nothing in the shared catalog: %+v", out1.Stats)
	}
	out2, err := RunString(db, `SELECT * FROM R, TWIG '/invoices/orderLine[orderID]/price'`)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Stats.CatalogMisses != out1.Stats.CatalogMisses {
		t.Fatalf("repeated statement rebuilt indexes: %d -> %d",
			out1.Stats.CatalogMisses, out2.Stats.CatalogMisses)
	}
	if out2.Stats.CatalogHits <= out1.Stats.CatalogHits {
		t.Fatalf("repeated statement recorded no reuse: %d -> %d",
			out1.Stats.CatalogHits, out2.Stats.CatalogHits)
	}
}

// TestExplainPrefix: EXPLAIN renders the plan without executing, and
// EXPLAIN ANALYZE executes under a trace whose span tree comes back as
// the output's Text, with per-phase wall times and per-level counters.
func TestExplainPrefix(t *testing.T) {
	db := testDB(t)
	out, err := RunString(db, `EXPLAIN SELECT * FROM R, TWIG '/invoices/orderLine[orderID]/price'`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Text, "PA") || out.Stats != nil {
		t.Fatalf("EXPLAIN output wrong (stats=%v):\n%s", out.Stats, out.Text)
	}
	if !strings.Contains(out.String(), "PA") {
		t.Fatal("String() must return Text for EXPLAIN")
	}

	out, err = RunString(db, `EXPLAIN ANALYZE SELECT * FROM R, TWIG '/invoices/orderLine[orderID]/price'`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"QUERY ANALYZE", "parse", "plan", "execute", "level 0:", "intersections="} {
		if !strings.Contains(out.Text, want) {
			t.Fatalf("EXPLAIN ANALYZE missing %q:\n%s", want, out.Text)
		}
	}
	// ANALYZE executed for real: the run's statistics ride along.
	if out.Stats == nil || out.Stats.Output == 0 {
		t.Fatalf("EXPLAIN ANALYZE did not execute: %+v", out.Stats)
	}
}

// TestExplainAnalyzeExists: the EXISTS form also runs under ANALYZE.
func TestExplainAnalyzeExists(t *testing.T) {
	db := testDB(t)
	out, err := RunString(db, `EXPLAIN ANALYZE EXISTS SELECT * FROM R, TWIG '/invoices/orderLine[orderID]/price'`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Text, "QUERY ANALYZE") || !strings.Contains(out.Text, "execute") {
		t.Fatalf("EXISTS under ANALYZE missing trace:\n%s", out.Text)
	}
}

// TestViaHybrid pins the hybrid planner's mmql surface: VIA hybrid/binary
// parse to the plan-mode algos, run through the engine (Stats.Plan set),
// and EXPLAIN ... VIA hybrid renders the per-subplan plan tree.
func TestViaHybrid(t *testing.T) {
	st, err := Parse(`SELECT * FROM R VIA hybrid`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Algo != "xjoin-hybrid" {
		t.Fatalf("algo = %q", st.Algo)
	}
	if st, err = Parse(`SELECT * FROM R VIA binary`); err != nil || st.Algo != "xjoin-binary" {
		t.Fatalf("binary algo = %q, err %v", st.Algo, err)
	}

	db := testDB(t)
	out, err := RunString(db, `SELECT * FROM R, TWIG '/invoices/orderLine[orderID]/price' VIA hybrid`)
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats == nil || out.Stats.Plan != "hybrid" {
		t.Fatalf("stats = %+v, want Plan=hybrid", out.Stats)
	}
	exp, err := RunString(db, `EXPLAIN SELECT * FROM R, TWIG '/invoices/orderLine[orderID]/price' VIA hybrid`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"plan: xjoin-hybrid", "plan tree:", "bound <="} {
		if !strings.Contains(exp.Text, want) {
			t.Fatalf("EXPLAIN VIA hybrid lacks %q:\n%s", want, exp.Text)
		}
	}
}
