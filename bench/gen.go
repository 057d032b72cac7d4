package main

// Seeded input generators. A seed relabels values — each attribute's domain
// keeps its order, the domains interleave differently, so every id changes
// but no comparison between two values of one attribute does — and shuffles
// the insertion order of table rows and the order statements are sent in.
// It never changes a cardinality or the work a query does: the closed-form
// row counts the workloads check hold for every seed, and what differs
// between two seeds' timings is the machine, not the input.

import (
	"fmt"
	"math/rand"
	"strings"

	xmjoin "repro"
	"repro/internal/datagen"
	"repro/internal/relational"
	"repro/internal/xmldb"
)

const (
	shopTwig  = "/catalog/shop//item[id][cat]/price"
	shops     = 40
	itemsPer  = 60
	shopRows  = shops * itemsPer // one answer per item
	gridScale = 48
	gridRows  = gridScale * gridScale * gridScale
	cyclicN   = 8192
	cyclicLen = 4
	cyclicOut = 3*cyclicN + 1 // hub tuple plus three spoke families
	fig3N     = 2048
	oracleN   = 6
	padBits   = 16 // the cold statement has 2^16 paddings; the prepared LRU holds 64
	deadline  = 5  // ms, the serve_deadline budget
)

// riffle returns vals, deduplicated, in a seeded interleaving of their
// domains: values that differ only in their trailing digits ("i0", "i1", …)
// form a domain and keep their first-appearance order; which domain the next
// value comes from is random. Interning the result assigns ids that differ
// from seed to seed yet sort every domain the same way.
func riffle(rng *rand.Rand, vals []string) []string {
	var domains [][]string
	index := make(map[string]int)
	seen := make(map[string]bool)
	left := 0
	for _, v := range vals {
		if seen[v] {
			continue
		}
		seen[v] = true
		key := strings.TrimRight(v, "0123456789")
		d, ok := index[key]
		if !ok {
			d = len(domains)
			index[key] = d
			domains = append(domains, nil)
		}
		domains[d] = append(domains[d], v)
		left++
	}
	out := make([]string, 0, left)
	for ; left > 0; left-- {
		// Pick a domain with probability proportional to what it has left.
		k := rng.Intn(left)
		for d := range domains {
			if k < len(domains[d]) {
				out = append(out, domains[d][0])
				domains[d] = domains[d][1:]
				break
			}
			k -= len(domains[d])
		}
	}
	return out
}

// permuteInstance rebuilds inst over a fresh dictionary whose ids are
// assigned in a seeded riffle of the original values, with table rows
// inserted in a seeded order. The document keeps its shape, so node ids and
// every cardinality are unchanged.
func permuteInstance(inst *datagen.Instance, rng *rand.Rand) (*datagen.Instance, error) {
	old := inst.Dict
	dict := relational.NewDict()
	var vals []string
	for i := 0; i < old.Len(); i++ {
		if v := relational.Value(i); !xmldb.IsSyntheticValue(old, v) {
			vals = append(vals, old.String(v))
		}
	}
	for _, v := range riffle(rng, vals) {
		dict.Intern(v)
	}
	b := xmldb.NewBuilder(dict)
	var walk func(id xmldb.NodeID)
	walk = func(id xmldb.NodeID) {
		b.Open(inst.Doc.Tag(id))
		if v := inst.Doc.Value(id); !xmldb.IsSyntheticValue(old, v) {
			b.Text(old.String(v))
		}
		for _, c := range inst.Doc.Children(id) {
			walk(c)
		}
		b.Close()
	}
	walk(inst.Doc.Root())
	doc, err := b.Done()
	if err != nil {
		return nil, err
	}
	out := &datagen.Instance{Dict: dict, Doc: doc, Pattern: inst.Pattern, N: inst.N}
	for _, t := range inst.Tables {
		out.Tables = append(out.Tables, remapTable(t, rng, func(v relational.Value) relational.Value {
			return dict.Intern(old.String(v))
		}))
	}
	return out, nil
}

// remapTable copies t with every value sent through f and the rows inserted
// in a seeded order.
func remapTable(t *relational.Table, rng *rand.Rand, f func(relational.Value) relational.Value) *relational.Table {
	nt := relational.NewTable(t.Name(), t.Schema())
	nt.Grow(t.Len())
	for _, r := range rng.Perm(t.Len()) {
		row := t.Row(r).Clone()
		for c, v := range row {
			row[c] = f(v)
		}
		nt.MustAppend(row...)
	}
	return nt
}

// fig3Instance is the paper's Figure 3 instance at scale n under seed.
func fig3Instance(n int, seed int64) (*datagen.Instance, error) {
	inst, err := datagen.Example34(n)
	if err != nil {
		return nil, err
	}
	return permuteInstance(inst, rand.New(rand.NewSource(seed)))
}

// cyclicTables is datagen.CyclicCoreTail with its one (shared,
// dictionary-free) value domain relabelled by a seeded increasing map and
// its rows shuffled by seed.
func cyclicTables(coreN, tailLen int, seed int64) ([]*relational.Table, error) {
	tables, err := datagen.CyclicCoreTail(coreN, tailLen)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	label := make([]relational.Value, coreN+1)
	for v := range label {
		label[v] = relational.Value(rng.Intn(4))
		if v > 0 {
			label[v] += label[v-1] + 1
		}
	}
	for i, t := range tables {
		tables[i] = remapTable(t, rng, func(v relational.Value) relational.Value { return label[v] })
	}
	return tables, nil
}

type tableRows struct {
	name  string
	attrs []string
	rows  [][]string
}

// shopDatabase is the nested shop catalog (40 shops × 60 items, odd shops
// nested one level) with R(id,user) and S(cat,region); withGrid adds the
// dense 48×48 tables G1(gx,gy), G2(gy,gz) whose join has 48³ rows.
func shopDatabase(seed int64, withGrid bool) (*xmjoin.Database, error) {
	rng := rand.New(rand.NewSource(seed))
	var vals []string // every text value, to pre-intern in a seeded riffle
	val := func(format string, a ...any) string {
		s := fmt.Sprintf(format, a...)
		vals = append(vals, s)
		return s
	}
	var sb strings.Builder
	sb.WriteString("<catalog>")
	for s := 0; s < shops; s++ {
		fmt.Fprintf(&sb, "<shop><name>%s</name>", val("s%d", s))
		if s%2 == 1 {
			fmt.Fprintf(&sb, "<shop><name>%s</name>", val("n%d", s))
		}
		for i := 0; i < itemsPer; i++ {
			fmt.Fprintf(&sb, "<item><id>%s</id><cat>%s</cat><price>%s</price></item>",
				val("i%d", (s*itemsPer+i)%97), val("c%d", i%11), val("%d", 10+(s+i)%23))
		}
		if s%2 == 1 {
			sb.WriteString("</shop>")
		}
		sb.WriteString("</shop>")
	}
	sb.WriteString("</catalog>")

	tables := []tableRows{{name: "R", attrs: []string{"id", "user"}}, {name: "S", attrs: []string{"cat", "region"}}}
	for i := 0; i < 97; i++ {
		tables[0].rows = append(tables[0].rows, []string{val("i%d", i), val("u%d", i%17)})
	}
	for c := 0; c < 11; c++ {
		tables[1].rows = append(tables[1].rows, []string{val("c%d", c), val("r%d", c%3)})
	}
	if withGrid {
		g1 := tableRows{name: "G1", attrs: []string{"gx", "gy"}}
		g2 := tableRows{name: "G2", attrs: []string{"gy", "gz"}}
		for a := 0; a < gridScale; a++ {
			for b := 0; b < gridScale; b++ {
				g1.rows = append(g1.rows, []string{val("x%d", a), val("y%d", b)})
				g2.rows = append(g2.rows, []string{val("y%d", a), val("z%d", b)})
			}
		}
		tables = append(tables, g1, g2)
	}

	db := xmjoin.NewDatabase()
	for _, v := range riffle(rng, vals) {
		db.Dict().Intern(v)
	}
	if err := db.LoadXMLString(sb.String()); err != nil {
		return nil, err
	}
	for _, t := range tables {
		rng.Shuffle(len(t.rows), func(i, j int) { t.rows[i], t.rows[j] = t.rows[j], t.rows[i] })
		if err := db.AddTableRows(t.name, t.attrs, t.rows); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// warmStatements are serve_warm's four full enumerations of the shop twig.
var warmStatements = []string{
	`SELECT * FROM R, S, TWIG '` + shopTwig + `'`,
	`SELECT user, price FROM R, S, TWIG '` + shopTwig + `'`,
	`SELECT user, region, price FROM R, S, TWIG '` + shopTwig + `'`,
	`SELECT region, COUNT(*) FROM R, S, TWIG '` + shopTwig + `' GROUP BY region`,
}

const (
	limitStatement = `SELECT * FROM R, S, TWIG '` + shopTwig + `' LIMIT 5`
	gridStatement  = `SELECT * FROM G1, G2`
)

// coldStatement is the i-th text of serve_cold_limit: the LIMIT statement
// followed by padBits characters of trailing whitespace, a space or a tab
// per bit of i^mask. Every text is as long and parses the same, and a text
// recurs only after 2^16 others, so the text-keyed prepared cache misses
// every time even when one client's request is delayed behind the other's.
func coldStatement(i, mask int) string {
	pad := make([]byte, padBits)
	for b := range pad {
		pad[b] = " \t"[(i^mask)>>b&1]
	}
	return limitStatement + string(pad)
}

// statementOrder is the seeded order in which a workload cycles through n
// statement variants: op i sends variant order[i%n].
func statementOrder(n int, seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}
