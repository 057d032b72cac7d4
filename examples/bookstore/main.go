// Bookstore: a larger Figure-1-style scenario. A generated XML catalog of
// invoices (with nested order lines) is joined against two relational
// tables — orders and customer regions — demonstrating multi-table
// multi-model queries, explicit attribute orders, and the intermediate-
// size statistics that distinguish XJoin from the baseline.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"slices"
	"strings"

	xmjoin "repro"
)

// buildCatalog writes an invoices document with nOrders order lines over
// nBooks books, plus matching orders/customers tables.
func buildCatalog(rng *rand.Rand, nOrders, nBooks, nUsers int) (xml string, orders, customers [][]string) {
	var sb strings.Builder
	sb.WriteString("<invoices>\n")
	for i := 0; i < nOrders; i++ {
		book := rng.Intn(nBooks)
		fmt.Fprintf(&sb, "  <orderLine>\n")
		fmt.Fprintf(&sb, "    <orderID>o%d</orderID>\n", i)
		fmt.Fprintf(&sb, "    <ISBN>isbn-%03d</ISBN>\n", book)
		fmt.Fprintf(&sb, "    <price>%d</price>\n", 10+book%40)
		fmt.Fprintf(&sb, "    <discount>0.%d</discount>\n", rng.Intn(5))
		fmt.Fprintf(&sb, "  </orderLine>\n")
	}
	sb.WriteString("</invoices>\n")

	for i := 0; i < nOrders; i++ {
		user := fmt.Sprintf("user%d", rng.Intn(nUsers))
		orders = append(orders, []string{fmt.Sprintf("o%d", i), user})
	}
	regions := []string{"eu", "us", "apac"}
	for u := 0; u < nUsers; u++ {
		customers = append(customers, []string{fmt.Sprintf("user%d", u), regions[u%len(regions)]})
	}
	return sb.String(), orders, customers
}

func main() {
	rng := rand.New(rand.NewSource(7))
	xml, orders, customers := buildCatalog(rng, 120, 25, 12)

	db := xmjoin.NewDatabase()
	if err := db.LoadXMLString(xml); err != nil {
		log.Fatal(err)
	}
	if err := db.AddTableRows("orders", []string{"orderID", "userID"}, orders); err != nil {
		log.Fatal(err)
	}
	if err := db.AddTableRows("customers", []string{"userID", "region"}, customers); err != nil {
		log.Fatal(err)
	}

	// Query 1: which books did EU customers buy, at what price?
	// Three-way multi-model join: twig ⋈ orders ⋈ customers.
	q, err := db.Query("/invoices/orderLine[orderID][ISBN]/price", "orders", "customers")
	if err != nil {
		log.Fatal(err)
	}
	res, err := q.ExecXJoin()
	if err != nil {
		log.Fatal(err)
	}
	eu, err := res.Project("region", "userID", "ISBN", "price")
	if err != nil {
		log.Fatal(err)
	}
	eu.Sort()
	fmt.Printf("query 1: %d (region, user, book, price) rows; first rows:\n", eu.Len())
	for i := 0; i < 5 && i < eu.Len(); i++ {
		fmt.Println(" ", strings.Join(eu.Row(i), "  "))
	}

	// Query 2: the same join under three expansion orders — the default
	// (the tables' attributes, then the twig's tags), the twig's tags
	// first, and the default reversed. Answers must agree; intermediate
	// work may not.
	def := q.PlanOrder()
	twigFirst := []string{"invoices", "orderLine", "orderID", "ISBN", "price", "userID", "region"}
	reversed := slices.Clone(def)
	slices.Reverse(reversed)
	for _, order := range [][]string{def, twigFirst, reversed} {
		r, err := q.WithOrder(order...).ExecXJoin()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("query 2: order %s: peak=%d total=%d agree=%v\n",
			strings.Join(order, " "), r.Stats().PeakIntermediate, r.Stats().TotalIntermediate, r.Equal(res))
	}

	// Query 3: XJoin vs baseline on the same query.
	base, err := q.ExecBaseline()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query 3: baseline Q1=%d Q2=%d peak=%d vs XJoin peak=%d (agree=%v)\n",
		base.Stats().Q1Size, base.Stats().Q2Size, base.Stats().PeakIntermediate,
		res.Stats().PeakIntermediate, base.Equal(res))

	// Query 4: pure XML — all discounted books (twig only, no tables).
	q4, err := db.Query("//orderLine[ISBN]/discount")
	if err != nil {
		log.Fatal(err)
	}
	r4, err := q4.ExecXJoin()
	if err != nil {
		log.Fatal(err)
	}
	pairs, err := r4.Project("ISBN", "discount")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query 4: %d distinct (ISBN, discount) pairs\n", pairs.Len())

	bounds, err := q.Bounds()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("bounds for query 1:", bounds)
}
