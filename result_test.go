package xmjoin

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestResultSortMatchesStableStringSort: Sort leaves the tuples exactly
// where a stable sort over the decoded rows would — ties included, which
// arise where a structural node and the text "<node#N>" decode alike — on
// tables whose values repeat across columns and contain spaces.
func TestResultSortMatchesStableStringSort(t *testing.T) {
	pool := []string{"a", "b", "a b", "b c", "<node#3>", "<node#6>"}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		db := NewDatabase()
		// Nodes 3 and 6 are empty <v> elements, so their values display as
		// "<node#3>" and "<node#6>"; node 9's text reads "<node#3>".
		err := db.LoadXMLString(`<r><e><k>b</k><v/></e><e><k>a b</k><v/></e><e><k>a</k><v>&lt;node#3&gt;</v></e></r>`)
		if err != nil {
			t.Fatal(err)
		}
		var rows [][]string
		for i, n := 0, 2+rng.Intn(20); i < n; i++ {
			rows = append(rows, []string{pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]})
		}
		if err := db.AddTableRows("T", []string{"k", "v", "w"}, rows); err != nil {
			t.Fatal(err)
		}
		for _, qs := range []struct {
			twig    string
			tables  []string
			project []string
		}{
			{"", []string{"T"}, nil},
			{"", []string{"T"}, []string{"w", "k"}},
			{"//e[k]/v", nil, nil},
			{"//e[k]/v", nil, []string{"v"}},
			{"//e[k]/v", nil, []string{"v", "k"}},
			{"//e[k]/v", []string{"T"}, []string{"v", "w"}},
		} {
			q, err := db.Query(qs.twig, qs.tables...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := q.ExecXJoin()
			if err != nil {
				t.Fatal(err)
			}
			if qs.project != nil {
				if res, err = res.Project(qs.project...); err != nil {
					t.Fatal(err)
				}
			}
			before := slices.Clone(res.r.Tuples)
			want := make([]int, res.Len())
			for i := range want {
				want[i] = i
			}
			decoded := make([][]string, res.Len())
			for i := range decoded {
				decoded[i] = res.Row(i)
			}
			sort.SliceStable(want, func(i, j int) bool {
				return slices.Compare(decoded[want[i]], decoded[want[j]]) < 0
			})
			res.Sort()
			for i, j := range want {
				if !slices.Equal(res.r.Tuples[i], before[j]) {
					t.Fatalf("trial %d, %s %v onto %v: position %d holds %v %q, want %v",
						trial, qs.twig, qs.tables, qs.project, i, res.r.Tuples[i], res.Row(i), before[j])
				}
			}
		}
	}
}
