package mmql

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	xmjoin "repro"
)

// TestSelectKeepsRowsDifferingInSpaces: two distinct rows whose cells only
// regroup the same characters around a space are both answered, whatever
// the select list.
func TestSelectKeepsRowsDifferingInSpaces(t *testing.T) {
	db := xmjoin.NewDatabase()
	if err := db.AddTableRows("T", []string{"x", "y"}, [][]string{{"a b", "c"}, {"a", "b c"}}); err != nil {
		t.Fatal(err)
	}
	for src, want := range map[string][][]string{
		`SELECT * FROM T`:    {{"a", "b c"}, {"a b", "c"}},
		`SELECT x, y FROM T`: {{"a", "b c"}, {"a b", "c"}},
		`SELECT y, x FROM T`: {{"b c", "a"}, {"c", "a b"}},
	} {
		out, err := RunString(db, src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if !reflect.DeepEqual(out.Rows, want) {
			t.Errorf("%s: rows %q, want %q", src, out.Rows, want)
		}
	}
}

// oracleSelect is the string-level definition of a plain SELECT's answer:
// the full result decoded, projected onto items (nil = every column),
// deduplicated on the exact cell tuple, stably sorted in string order,
// then cut at limit (0 = no limit).
func oracleSelect(res *xmjoin.Result, items []SelectItem, limit int) [][]string {
	var cols []int
	if items == nil {
		for j := range res.Attrs() {
			cols = append(cols, j)
		}
	}
	for _, it := range items {
		cols = append(cols, slices.Index(res.Attrs(), it.Attr))
	}
	seen := make(map[string]bool)
	var rows [][]string
	for i := 0; i < res.Len(); i++ {
		row := res.Row(i)
		pr := make([]string, len(cols))
		key := make([]string, len(cols))
		for k, c := range cols {
			pr[k] = row[c]
			key[k] = strconv.Quote(row[c])
		}
		if k := strings.Join(key, ","); !seen[k] {
			seen[k] = true
			rows = append(rows, pr)
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return slices.Compare(rows[i], rows[j]) < 0 })
	if limit > 0 && len(rows) > limit {
		rows = rows[:limit]
	}
	return rows
}

// spacedPool holds cell values with inner spaces, so joining cells with a
// space is ambiguous.
var spacedPool = []string{"a", "b", "c", "a b", "b c", "a b c"}

// randomSpacedDB draws a document of <e> elements, each with a <k> text
// child and a <v> child that holds text, nothing (its value is then the
// node's structural id, displayed "<node#N>") or the literal text
// "<node#N>" of an earlier empty <v>: two ids, one display string. The
// table T(k, v, w) draws from the same values, so they repeat across
// columns and join with the twig on k and v.
func randomSpacedDB(t *testing.T, rng *rand.Rand) *xmjoin.Database {
	t.Helper()
	var xb strings.Builder
	var texts []string // every <v> text, for the table to join on
	var empty []int    // node ids of the empty <v> elements
	xb.WriteString("<r>")
	for i, n := 0, 4+rng.Intn(8); i < n; i++ {
		vID := 3 + 3*i // pre-order ids: r=0, then e, k, v per element
		k := spacedPool[rng.Intn(len(spacedPool))]
		fmt.Fprintf(&xb, "<e><k>%s</k>", k)
		switch c := rng.Intn(3); {
		case c == 0:
			xb.WriteString("<v/>")
			empty = append(empty, vID)
		case c == 1 && len(empty) > 0:
			lit := fmt.Sprintf("<node#%d>", empty[rng.Intn(len(empty))])
			fmt.Fprintf(&xb, "<v>&lt;%s&gt;</v>", lit[1:len(lit)-1])
			texts = append(texts, lit)
		default:
			v := spacedPool[rng.Intn(len(spacedPool))]
			fmt.Fprintf(&xb, "<v>%s</v>", v)
			texts = append(texts, v)
		}
		xb.WriteString("</e>")
	}
	xb.WriteString("</r>")
	db := xmjoin.NewDatabase()
	if err := db.LoadXMLString(xb.String()); err != nil {
		t.Fatal(err)
	}
	vals := append(append([]string(nil), spacedPool...), texts...)
	var rows [][]string
	for i, n := 0, 3+rng.Intn(12); i < n; i++ {
		rows = append(rows, []string{
			spacedPool[rng.Intn(len(spacedPool))],
			vals[rng.Intn(len(vals))],
			spacedPool[rng.Intn(len(spacedPool))],
		})
	}
	if err := db.AddTableRows("T", []string{"k", "v", "w"}, rows); err != nil {
		t.Fatal(err)
	}
	return db
}

// oracleStatements are the plain SELECTs the oracle checks, over the
// table alone, the twig alone and their join.
var oracleStatements = []string{
	`SELECT * FROM T`,
	`SELECT w, k FROM T`,
	`SELECT v FROM T`,
	`SELECT * FROM TWIG '//e[k]/v'`,
	`SELECT v FROM TWIG '//e[k]/v'`,
	`SELECT v, k FROM TWIG '//e[k]/v'`,
	`SELECT * FROM T, TWIG '//e[k]/v'`,
	`SELECT w, v FROM T, TWIG '//e[k]/v'`,
	`SELECT v, w FROM T, TWIG '//e/v'`,
}

// TestSelectMatchesStringOracle: a plain SELECT answers exactly what
// oracleSelect derives from the full result, with and without LIMIT, on
// the serial and the morsel-parallel executor. A SELECT * LIMIT stops the
// join itself after LIMIT answers, so which answers it keeps is the
// engine's choice: its rows must be sorted, distinct and drawn from the
// full answer.
func TestSelectMatchesStringOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	collided := false
	for trial := 0; trial < 40; trial++ {
		db := randomSpacedDB(t, rng)
		for _, src := range oracleStatements {
			limit := 0
			if rng.Intn(2) == 0 {
				limit = 1 + rng.Intn(4)
				src += " LIMIT " + strconv.Itoa(limit)
			}
			st, err := Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			q, _, err := assemble(db, st)
			if err != nil {
				t.Fatal(err)
			}
			full, err := q.ExecXJoin()
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			all := oracleSelect(full, st.Items, 0)
			if st.Items != nil {
				var attrs []string
				for _, it := range st.Items {
					attrs = append(attrs, it.Attr)
				}
				if ids, err := full.Project(attrs...); err != nil {
					t.Fatal(err)
				} else if ids.Len() > len(all) {
					collided = true // distinct ids decoded to one row
				}
			}
			for _, par := range []int{0, -1} {
				out, err := RunCtx(context.Background(), db, st, xmjoin.ExecOptions{Parallelism: par})
				if err != nil {
					t.Fatalf("%s (parallelism %d): %v", src, par, err)
				}
				if st.Items != nil || limit == 0 {
					if want := oracleSelect(full, st.Items, limit); !reflect.DeepEqual(out.Rows, want) {
						t.Fatalf("trial %d, %s (parallelism %d):\n got %q\nwant %q", trial, src, par, out.Rows, want)
					}
					continue
				}
				checkLimitedStar(t, src, out.Rows, all, limit)
			}
		}
	}
	if !collided {
		t.Fatal("no trial decoded two ids to one row; the generator lost its point")
	}
}

// checkLimitedStar checks an engine-limited SELECT * answer against the
// full oracle answer all.
func checkLimitedStar(t *testing.T, src string, got, all [][]string, limit int) {
	t.Helper()
	if len(got) > limit || (len(all) > 0 && len(got) == 0) {
		t.Fatalf("%s: %d rows of %d", src, len(got), len(all))
	}
	in := make(map[string]bool, len(all))
	for _, r := range all {
		in[strings.Join(r, "\x00")] = true
	}
	for i, r := range got {
		if !in[strings.Join(r, "\x00")] {
			t.Fatalf("%s: row %q is not in the full answer", src, r)
		}
		if i > 0 && strings.Join(got[i-1], "\x00") >= strings.Join(r, "\x00") {
			t.Fatalf("%s: rows %q, %q out of order or repeated", src, got[i-1], r)
		}
	}
}
