package main

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"

	xmjoin "repro"
	"repro/internal/datagen"
	"repro/internal/relational"
	"repro/internal/xmldb"
)

// tableRowsOf renders a table row by row; decode maps a value to text.
func tableRowsOf(t *relational.Table, decode func(relational.Value) string) []string {
	var out []string
	t.Rows(func(r relational.Tuple) bool {
		var cells []string
		for _, v := range r {
			cells = append(cells, decode(v))
		}
		out = append(out, strings.Join(cells, ","))
		return true
	})
	return out
}

func instanceText(t *testing.T, inst *datagen.Instance) []string {
	t.Helper()
	var xml bytes.Buffer
	if err := xmldb.Write(&xml, inst.Doc); err != nil {
		t.Fatal(err)
	}
	out := []string{xml.String()}
	for v := 0; v < inst.Dict.Len(); v++ {
		out = append(out, inst.Dict.String(relational.Value(v)))
	}
	for _, tb := range inst.Tables {
		out = append(out, tableRowsOf(tb, inst.Dict.String)...)
	}
	return out
}

func databaseText(db *xmjoin.Database) []string {
	var out []string
	for v := 0; v < db.Dict().Len(); v++ {
		out = append(out, db.Dict().String(relational.Value(v)))
	}
	for _, name := range db.TableNames() {
		tb, _ := db.Table(name)
		out = append(out, tableRowsOf(tb, db.Dict().String)...)
	}
	return out
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	fig := func(seed int64) *datagen.Instance {
		inst, err := fig3Instance(16, seed)
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}
	a, b, c := fig(1), fig(1), fig(2)
	if !reflect.DeepEqual(instanceText(t, a), instanceText(t, b)) {
		t.Error("fig3Instance: same seed, different inputs")
	}
	if reflect.DeepEqual(instanceText(t, a), instanceText(t, c)) {
		t.Error("fig3Instance: different seeds, identical inputs")
	}
	if a.Doc.Len() != c.Doc.Len() || a.Dict.Len() != c.Dict.Len() || a.Tables[0].Len() != c.Tables[0].Len() || a.Tables[1].Len() != c.Tables[1].Len() {
		t.Error("fig3Instance: seed changed a cardinality")
	}

	shop := func(seed int64) *xmjoin.Database {
		db, err := shopDatabase(seed, true)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	d1, d2, d3 := shop(1), shop(1), shop(2)
	if !reflect.DeepEqual(databaseText(d1), databaseText(d2)) {
		t.Error("shopDatabase: same seed, different inputs")
	}
	if reflect.DeepEqual(databaseText(d1), databaseText(d3)) {
		t.Error("shopDatabase: different seeds, identical inputs")
	}
	if d1.Dict().Len() != d3.Dict().Len() || d1.Doc().Len() != d3.Doc().Len() {
		t.Error("shopDatabase: seed changed a cardinality")
	}
	for _, name := range d1.TableNames() {
		t1, _ := d1.Table(name)
		t3, _ := d3.Table(name)
		if t1.Len() != t3.Len() {
			t.Errorf("shopDatabase: table %s has %d rows under seed 1, %d under seed 2", name, t1.Len(), t3.Len())
		}
	}

	cyc := func(seed int64) [][]string {
		tables, err := cyclicTables(64, 2, seed)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]string
		for _, tb := range tables {
			out = append(out, tableRowsOf(tb, func(v relational.Value) string { return string(rune('0'+v%10)) + "/" + string(rune('a'+v/10)) }))
		}
		return out
	}
	c1, c2, c3 := cyc(1), cyc(1), cyc(2)
	if !reflect.DeepEqual(c1, c2) {
		t.Error("cyclicTables: same seed, different inputs")
	}
	if reflect.DeepEqual(c1, c3) {
		t.Error("cyclicTables: different seeds, identical inputs")
	}
	for i := range c1 {
		if len(c1[i]) != len(c3[i]) {
			t.Errorf("cyclicTables: table %d has %d rows under seed 1, %d under seed 2", i, len(c1[i]), len(c3[i]))
		}
	}

	// Relabelling keeps the order within every domain.
	for _, db := range []*xmjoin.Database{d1, d3} {
		for _, domain := range []string{"i", "c", "u", "r", "s", "x", "y", "z"} {
			prev := relational.Value(-1)
			for k := 0; ; k++ {
				v, ok := db.Dict().Lookup(domain + strconv.Itoa(k))
				if !ok {
					break
				}
				if v <= prev {
					t.Fatalf("shopDatabase: value %s%d has id %d, its predecessor %d", domain, k, v, prev)
				}
				prev = v
			}
		}
	}

	if !reflect.DeepEqual(statementOrder(4, 5), statementOrder(4, 5)) || reflect.DeepEqual(statementOrder(4, 5), statementOrder(4, 6)) {
		t.Error("statementOrder does not follow its seed")
	}
	seen := map[string]bool{}
	for i := 0; i < 1<<padBits; i++ {
		text := coldStatement(i, 12345)
		if seen[text] || len(text) != len(limitStatement)+padBits || strings.TrimSpace(text) != limitStatement {
			t.Fatalf("coldStatement(%d) = %q repeats or is not the padded statement", i, text)
		}
		seen[text] = true
	}
}
