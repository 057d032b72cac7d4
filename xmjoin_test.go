package xmjoin

import (
	"math/big"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

const invoicesXML = `
<invoices>
  <orderLine>
    <orderID>10963</orderID>
    <ISBN>978-3-16-1</ISBN>
    <price>30</price>
    <discount>0.1</discount>
  </orderLine>
  <orderLine>
    <orderID>20134</orderID>
    <ISBN>634-3-12-2</ISBN>
    <price>20</price>
    <discount>0.3</discount>
  </orderLine>
</invoices>`

var ordersRows = [][]string{
	{"10963", "jack"},
	{"20134", "tom"},
	{"35768", "bob"},
}

func figure1DB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase()
	if err := db.LoadXMLString(invoicesXML); err != nil {
		t.Fatal(err)
	}
	if err := db.AddTableRows("R", []string{"orderID", "userID"}, ordersRows); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestQuickstartFigure1 is the paper's Figure 1 through the public API.
func TestQuickstartFigure1(t *testing.T) {
	db := figure1DB(t)
	q, err := db.Query("/invoices/orderLine[orderID][ISBN]/price", "R")
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.ExecXJoin()
	if err != nil {
		t.Fatal(err)
	}
	out, err := res.Project("userID", "ISBN", "price")
	if err != nil {
		t.Fatal(err)
	}
	out.Sort()
	if out.Len() != 2 {
		t.Fatalf("result rows = %d want 2", out.Len())
	}
	if got := strings.Join(out.Row(0), "|"); got != "jack|978-3-16-1|30" {
		t.Errorf("row 0 = %s", got)
	}
	if got := strings.Join(out.Row(1), "|"); got != "tom|634-3-12-2|20" {
		t.Errorf("row 1 = %s", got)
	}
	if !strings.Contains(out.String(), "jack") {
		t.Error("String render missing data")
	}
}

func TestPublicBaselineAgrees(t *testing.T) {
	db := figure1DB(t)
	q, err := db.Query("/invoices/orderLine[orderID][ISBN]/price", "R")
	if err != nil {
		t.Fatal(err)
	}
	x, err := q.ExecXJoin()
	if err != nil {
		t.Fatal(err)
	}
	b, err := q.ExecBaseline()
	if err != nil {
		t.Fatal(err)
	}
	if !x.Equal(b) {
		t.Fatalf("XJoin %d rows, baseline %d", x.Len(), b.Len())
	}
	if b.Stats().Algorithm != "baseline" || x.Stats().Algorithm != "xjoin" {
		t.Error("algorithm labels wrong")
	}
}

func TestPublicBounds(t *testing.T) {
	db := figure1DB(t)
	q, err := db.Query("/invoices/orderLine[orderID][ISBN]/price", "R")
	if err != nil {
		t.Fatal(err)
	}
	bounds, err := q.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	// The twig is one sub-twig with paths (invoices,orderLine,orderID),
	// (...,ISBN), (...,price): twig exponent 3. The full query also needs
	// userID, but R(orderID,userID) can replace the orderID path in the
	// cover, so the full exponent stays 3.
	if bounds.TwigExponent().Cmp(big.NewRat(3, 1)) != 0 {
		t.Errorf("twig exponent = %s want 3", bounds.TwigExponent().RatString())
	}
	if bounds.Exponent().Cmp(big.NewRat(3, 1)) != 0 {
		t.Errorf("full exponent = %s want 3", bounds.Exponent().RatString())
	}
	if bounds.Weighted() <= 0 {
		t.Error("weighted bound not positive")
	}
	if !strings.Contains(bounds.Hypergraph(), "X[") {
		t.Error("hypergraph render missing path relations")
	}
	if !strings.Contains(bounds.String(), "rho*") {
		t.Error("bounds summary missing rho*")
	}
	sb, err := q.StageBounds()
	if err != nil {
		t.Fatal(err)
	}
	if len(sb) != len(q.Attrs()) {
		t.Errorf("stage bounds = %d, attrs = %d", len(sb), len(q.Attrs()))
	}
}

// TestWithADModes: the A-D handling modes must agree on answers over an
// actual //-edge query, and the stats must report what ran — lazy holds
// region-interval index state, materialized and post-hoc do not.
func TestWithADModes(t *testing.T) {
	db := figure1DB(t)
	q, err := db.Query("//invoices//price", "R")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := q.ExecXJoin()
	if err != nil {
		t.Fatal(err)
	}
	if s := ref.Stats(); s.ADMode != "lazy" || s.StructIndexes == 0 {
		t.Errorf("default stats = %q/%d, want lazy with struct indexes", s.ADMode, s.StructIndexes)
	}
	for _, m := range []ADMode{ADLazy, ADPostHoc, ADMaterialized} {
		r, err := q.WithAD(m).ExecXJoin()
		if err != nil {
			t.Fatal(err)
		}
		if !r.Equal(ref) {
			t.Errorf("AD mode %v changed answers", m)
		}
	}
	r, err := q.WithAD(ADPostHoc).ExecXJoin()
	if err != nil {
		t.Fatal(err)
	}
	if s := r.Stats(); s.ADMode != "posthoc" || s.StructIndexes != 0 {
		t.Errorf("post-hoc stats = %q/%d", s.ADMode, s.StructIndexes)
	}
}

func TestQueryOptions(t *testing.T) {
	db := figure1DB(t)
	q, err := db.Query("/invoices/orderLine[orderID][ISBN]/price", "R")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := q.ExecXJoin()
	if err != nil {
		t.Fatal(err)
	}
	// The default order is the first-appearance order q.Attrs(); the
	// reversed default and two seeded permutations must agree with it.
	rev := q.Attrs()
	slices.Reverse(rev)
	orders := [][]string{q.Attrs(), rev}
	rng := rand.New(rand.NewSource(7))
	for range 2 {
		p := q.Attrs()
		rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
		orders = append(orders, p)
	}
	for _, order := range orders {
		r, err := q.WithOrder(order...).ExecXJoin()
		if err != nil {
			t.Fatal(err)
		}
		if !r.Equal(ref) {
			t.Errorf("order %v changed answers", order)
		}
	}
	r2, err := q.WithAD(ADMaterialized).ExecXJoin()
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Equal(ref) {
		t.Error("materialized AD changed answers")
	}
	if s := r2.Stats(); s.Algorithm != "xjoin" {
		t.Errorf("algorithm = %s, want xjoin for every A-D mode", s.Algorithm)
	}
}

func TestPureXMLQuery(t *testing.T) {
	db := NewDatabase()
	if err := db.LoadXMLString(invoicesXML); err != nil {
		t.Fatal(err)
	}
	q, err := db.Query("//orderLine/price")
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.ExecXJoin()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("rows = %d", res.Len())
	}
	prices, err := res.Project("price")
	if err != nil {
		t.Fatal(err)
	}
	prices.Sort()
	if prices.Row(0)[0] != "20" || prices.Row(1)[0] != "30" {
		t.Errorf("prices = %v %v", prices.Row(0), prices.Row(1))
	}
}

func TestPureRelationalQuery(t *testing.T) {
	db := NewDatabase()
	if err := db.AddTableRows("R", []string{"a", "b"}, [][]string{{"1", "x"}, {"2", "y"}}); err != nil {
		t.Fatal(err)
	}
	if err := db.AddTableRows("S", []string{"b", "c"}, [][]string{{"x", "7"}, {"x", "8"}}); err != nil {
		t.Fatal(err)
	}
	q, err := db.Query("", "R", "S")
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.ExecXJoin()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("rows = %d want 2", res.Len())
	}
}

func TestDatabaseErrors(t *testing.T) {
	db := NewDatabase()
	if err := db.LoadXMLString("<a><b></a>"); err == nil {
		t.Error("malformed XML accepted")
	}
	if err := db.AddTableRows("T", []string{"a", "a"}, nil); err == nil {
		t.Error("duplicate columns accepted")
	}
	if err := db.AddTableRows("T", []string{"a"}, [][]string{{"1", "2"}}); err == nil {
		t.Error("ragged row accepted")
	}
	if err := db.AddTableRows("T", []string{"a"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := db.AddTableRows("T", []string{"a"}, nil); err == nil {
		t.Error("duplicate table accepted")
	}
	if _, err := db.Query("//a"); err == nil {
		t.Error("twig query without document accepted")
	}
	if _, err := db.Query("", "missing"); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := db.Query("///"); err == nil {
		t.Error("bad twig accepted")
	}
	if err := db.LoadXMLFile("/nonexistent.xml"); err == nil {
		t.Error("missing XML file accepted")
	}
	if err := db.AddTableCSVFile("X", "/nonexistent.csv"); err == nil {
		t.Error("missing CSV file accepted")
	}
}

func TestAddTableCSV(t *testing.T) {
	db := NewDatabase()
	if err := db.AddTableCSV("R", strings.NewReader("a,b\n1,2\n3,4\n")); err != nil {
		t.Fatal(err)
	}
	tb, ok := db.Table("R")
	if !ok || tb.Len() != 2 {
		t.Fatalf("table missing or wrong size")
	}
	if names := db.TableNames(); len(names) != 1 || names[0] != "R" {
		t.Errorf("TableNames = %v", names)
	}
}

const ordersShipmentsXML = `
<db>
  <orders>
    <order><orderID>1</orderID><item>book</item></order>
    <order><orderID>2</orderID><item>pen</item></order>
  </orders>
  <shipments>
    <shipment><orderID>1</orderID><carrier>dhl</carrier></shipment>
  </shipments>
</db>`

func TestQueryMulti(t *testing.T) {
	db := NewDatabase()
	if err := db.LoadXMLString(ordersShipmentsXML); err != nil {
		t.Fatal(err)
	}
	q, err := db.QueryMulti([]string{"//order[orderID]/item", "//shipment[orderID]/carrier"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.ExecXJoin()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("multi-twig rows = %d want 1", res.Len())
	}
	out, err := res.Project("item", "carrier")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(out.Row(0), "|"); got != "book|dhl" {
		t.Errorf("row = %s", got)
	}
	base, err := q.ExecBaseline()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(base) {
		t.Error("multi-twig baseline disagrees")
	}
	if _, err := db.QueryMulti([]string{"//["}); err == nil {
		t.Error("bad twig in multi accepted")
	}
}

func TestValueFilterPublicAPI(t *testing.T) {
	db := figure1DB(t)
	q, err := db.Query(`/invoices/orderLine[orderID="20134"][ISBN]/price`, "R")
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.ExecXJoin()
	if err != nil {
		t.Fatal(err)
	}
	out, err := res.Project("userID", "price")
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || strings.Join(out.Row(0), "|") != "tom|20" {
		t.Fatalf("filtered rows = %v", out)
	}
}

func TestExplainAndStream(t *testing.T) {
	db := figure1DB(t)
	q, err := db.Query("/invoices/orderLine[orderID][ISBN]/price", "R")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := q.Explain()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"plan: xjoin", "Tag[orderLine]", "PC[", "attribute priority PA", "Lemma 3.5", "rho*"} {
		if !strings.Contains(plan, want) {
			t.Errorf("Explain missing %q:\n%s", want, plan)
		}
	}

	var rows [][]string
	stats, err := q.ExecXJoinStream(func(row []string) bool {
		rows = append(rows, append([]string(nil), row...))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || stats.Output != 2 {
		t.Fatalf("streamed %d rows, stats %d", len(rows), stats.Output)
	}
	// Early stop.
	n := 0
	if _, err := q.ExecXJoinStream(func([]string) bool { n++; return false }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("early stop streamed %d", n)
	}
}
