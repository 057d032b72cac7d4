package xmjoin

import (
	"testing"

	"repro/internal/faultpoint"
)

// TestPrepareBuildsNoIndex: assembling and preparing a default-order twig
// query builds no index; the first execution builds the tag runs and the
// P-C edge indexes inside the run.
func TestPrepareBuildsNoIndex(t *testing.T) {
	db := figure1DB(t)
	faultpoint.Install()
	t.Cleanup(faultpoint.Reset)
	const tagBuild, edgeBuild = "structix.tag.build", "structix.edge.build"

	p, err := db.Query("/invoices/orderLine[orderID][ISBN]/price", "R")
	if err != nil {
		t.Fatal(err)
	}
	pq, err := p.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	if tags, edges := faultpoint.Hits(tagBuild), faultpoint.Hits(edgeBuild); tags != 0 || edges != 0 {
		t.Fatalf("assembly and Prepare built %d tag runs and %d edge indexes, want none", tags, edges)
	}
	res, err := pq.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("rows = %d, want 2", res.Len())
	}
	if tags, edges := faultpoint.Hits(tagBuild), faultpoint.Hits(edgeBuild); tags == 0 || edges == 0 {
		t.Fatalf("first Execute built %d tag runs and %d edge indexes, want both", tags, edges)
	}
}

// TestPCTwigTagRunsAreCatalogEntries: the tag runs a P-C-only twig reads are
// catalog entries like its edge indexes — accounted after one run, evicted
// by a budget squeeze, and rebuilt by the next run with the same answer.
func TestPCTwigTagRunsAreCatalogEntries(t *testing.T) {
	db := figure1DB(t)
	q, err := db.Query("/invoices/orderLine[orderID]/price")
	if err != nil {
		t.Fatal(err)
	}
	first, err := q.ExecXJoin()
	if err != nil {
		t.Fatal(err)
	}
	info := db.Catalog().StructIndex(db.Doc()).Info()
	if info.TagRuns != 4 || info.Edges != 3 {
		t.Fatalf("index holds %d tag runs and %d edge indexes, want 4 and 3", info.TagRuns, info.Edges)
	}
	cs := db.Catalog().Stats()
	if cs.Entries != info.TagRuns+info.Edges || cs.ResidentBytes != info.ApproxBytes {
		t.Fatalf("catalog = %+v, want every structure of %+v accounted", cs, info)
	}

	db.Catalog().SetBudget(1)
	t.Cleanup(func() { db.Catalog().SetBudget(0) })
	if cs := db.Catalog().Stats(); cs.Entries != 0 || cs.ResidentBytes != 0 || cs.Evictions == 0 {
		t.Fatalf("budget squeeze left %+v", cs)
	}
	again, err := q.ExecXJoin()
	if err != nil {
		t.Fatal(err)
	}
	if !again.Equal(first) || again.Len() == 0 {
		t.Fatalf("after eviction: %d rows, want the first run's %d", again.Len(), first.Len())
	}
	if s := again.Stats(); s.Degraded != "" {
		t.Fatalf("P-C-only run degraded: %q", s.Degraded)
	}
}
