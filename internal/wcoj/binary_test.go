package wcoj

import (
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/cachehook"
	"repro/internal/relational"
)

func mkTable(t *testing.T, name string, attrs []string, rows [][]relational.Value) *relational.Table {
	t.Helper()
	schema, err := relational.NewSchema(attrs...)
	if err != nil {
		t.Fatal(err)
	}
	tab := relational.NewTable(name, schema)
	for _, r := range rows {
		if err := tab.Append(relational.Tuple(r)); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// TestBinaryStatsMergeCoversAllFields pins BinaryJoinStats.Merge to the
// struct, like TestStatsMergeCoversAllFields does for GenericJoinStats:
// adding a field without a merge rule fails here instead of silently
// dropping a partition's counts.
func TestBinaryStatsMergeCoversAllFields(t *testing.T) {
	known := map[string]bool{
		"StepSizes":         true, // elementwise sum
		"PeakIntermediate":  true, // recomputed from merged StepSizes
		"TotalIntermediate": true,
		"Output":            true,
		"BuildRows":         true,
		"Probes":            true,
		"Matches":           true,
	}
	rt := reflect.TypeOf(BinaryJoinStats{})
	for i := 0; i < rt.NumField(); i++ {
		if !known[rt.Field(i).Name] {
			t.Errorf("BinaryJoinStats gained field %q: add a rule to Merge and to this test", rt.Field(i).Name)
		}
	}
	a := BinaryJoinStats{StepSizes: []int{4, 2}, PeakIntermediate: 4, TotalIntermediate: 6,
		Output: 2, BuildRows: 3, Probes: 5, Matches: 4}
	b := BinaryJoinStats{StepSizes: []int{1, 7, 2}, PeakIntermediate: 7, TotalIntermediate: 10,
		Output: 2, BuildRows: 2, Probes: 4, Matches: 6}
	a.Merge(&b)
	if !reflect.DeepEqual(a.StepSizes, []int{5, 9, 2}) || a.PeakIntermediate != 9 ||
		a.TotalIntermediate != 16 || a.Output != 4 || a.BuildRows != 5 ||
		a.Probes != 9 || a.Matches != 10 {
		t.Fatalf("merged = %+v", a)
	}
}

func TestHashJoinOptsStats(t *testing.T) {
	r := mkTable(t, "R", []string{"a", "b"}, [][]relational.Value{{1, 10}, {2, 20}, {3, 30}})
	s := mkTable(t, "S", []string{"b", "c"}, [][]relational.Value{{10, 100}, {10, 101}, {20, 200}})
	var stats BinaryJoinStats
	out, err := HashJoinOpts("J", r, s, StreamOpts{}, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 {
		t.Fatalf("output %d rows, want 3", out.Len())
	}
	// Build happens on the smaller side (both 3 rows, a wins the tie).
	if stats.BuildRows != 3 || stats.Probes != 3 || stats.Matches != 3 {
		t.Fatalf("stats = %+v", stats)
	}
	// Oracle agreement.
	oracle, err := NestedLoopJoin("J", r, s)
	if err != nil {
		t.Fatal(err)
	}
	out.Dedup()
	oracle.Dedup()
	if out.Len() != oracle.Len() {
		t.Fatalf("hash join %d rows, nested loop %d", out.Len(), oracle.Len())
	}
}

// TestHashJoinOptsCancel: a pre-raised cancel flag must stop the probe
// loop within one checkInterval, leaving a (possibly empty) partial
// output and no error — the streaming drivers' cancellation protocol.
func TestHashJoinOptsCancel(t *testing.T) {
	const n = 10 * checkInterval
	rows := make([][]relational.Value, n)
	for i := range rows {
		rows[i] = []relational.Value{relational.Value(i), relational.Value(i)}
	}
	r := mkTable(t, "R", []string{"a", "b"}, rows)
	s := mkTable(t, "S", []string{"b", "c"}, rows)
	var cancel atomic.Bool
	cancel.Store(true)
	var stats BinaryJoinStats
	out, err := HashJoinOpts("J", r, s, StreamOpts{Cancel: &cancel}, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() > checkInterval {
		t.Fatalf("cancelled join still produced %d rows", out.Len())
	}
}

// TestHashJoinOptsCheckBackstop: with only Build.Check set (no flag writer
// scheduled), the periodic poll must still stop the join and raise the
// shared flag for sibling operators.
func TestHashJoinOptsCheckBackstop(t *testing.T) {
	const n = 8 * checkInterval
	rows := make([][]relational.Value, n)
	for i := range rows {
		rows[i] = []relational.Value{relational.Value(i), relational.Value(i)}
	}
	r := mkTable(t, "R", []string{"a", "b"}, rows)
	s := mkTable(t, "S", []string{"b", "c"}, rows)
	var cancel atomic.Bool
	calls := 0
	check := func() bool {
		calls++
		return calls > 1 // dead from the second poll on
	}
	out, err := HashJoinOpts("J", r, s, StreamOpts{Cancel: &cancel, Build: cachehook.BuildControl{Check: check}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() >= n {
		t.Fatal("check backstop never stopped the join")
	}
	if !cancel.Load() {
		t.Fatal("check backstop did not raise the shared flag")
	}
}

func TestNestedLoopJoinOptsCancel(t *testing.T) {
	const n = 4 * checkInterval
	rows := make([][]relational.Value, n)
	for i := range rows {
		rows[i] = []relational.Value{relational.Value(i), relational.Value(i)}
	}
	r := mkTable(t, "R", []string{"a", "b"}, rows)
	s := mkTable(t, "S", []string{"b", "c"}, rows)
	var cancel atomic.Bool
	cancel.Store(true)
	out, err := NestedLoopJoinOpts("J", r, s, StreamOpts{Cancel: &cancel})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() > checkInterval {
		t.Fatalf("cancelled nested loop still produced %d rows", out.Len())
	}
}

// TestChainHashJoinOptsStats: a three-table chain records every step and
// the scalar counters.
func TestChainHashJoinOptsStats(t *testing.T) {
	r := mkTable(t, "R", []string{"a", "b"}, [][]relational.Value{{1, 10}, {2, 20}})
	s := mkTable(t, "S", []string{"b", "c"}, [][]relational.Value{{10, 100}, {20, 200}})
	u := mkTable(t, "U", []string{"c", "d"}, [][]relational.Value{{100, 7}, {200, 8}, {200, 9}})
	out, stats, err := ChainHashJoinOpts("Q", []*relational.Table{r, s, u}, StreamOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 || stats.Output != 3 {
		t.Fatalf("output %d rows, stats %+v", out.Len(), stats)
	}
	if len(stats.StepSizes) != 3 || stats.PeakIntermediate != 3 || stats.TotalIntermediate != 2+2+3 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.BuildRows == 0 || stats.Probes == 0 || stats.Matches == 0 {
		t.Fatalf("scalar counters missing: %+v", stats)
	}
}

// TestMaterializedAtomCursor: a binary intermediate wrapped as an atom
// must serve the full cursor contract inside a generic join.
func TestMaterializedAtomCursor(t *testing.T) {
	r := mkTable(t, "R", []string{"a", "b"}, [][]relational.Value{{1, 10}, {2, 20}, {3, 30}})
	s := mkTable(t, "S", []string{"b", "c"}, [][]relational.Value{{10, 100}, {20, 200}})
	inter, stats, err := ChainHashJoinOpts("RS", []*relational.Table{r, s}, StreamOpts{})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMaterializedAtom("subplan:RS", inter, stats)
	if m.Name() != "subplan:RS" {
		t.Fatalf("Name = %q", m.Name())
	}
	if m.BinaryStats().Output != 2 {
		t.Fatalf("BinaryStats = %+v", m.BinaryStats())
	}
	u := mkTable(t, "U", []string{"c", "d"}, [][]relational.Value{{100, 7}, {200, 8}})
	res, err := GenericJoin([]Atom{m, NewTableAtom(u)}, []string{"a", "b", "c", "d"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 2 {
		t.Fatalf("hybrid seam join produced %d tuples, want 2", len(res.Tuples))
	}
}
