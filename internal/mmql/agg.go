package mmql

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cli"
	"repro/internal/core"
)

// AggFunc names an aggregate function.
type AggFunc int

const (
	AggNone AggFunc = iota
	AggCount
	AggSum
	AggMin
	AggMax
)

func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	default:
		return "none"
	}
}

// SelectItem is one projection: a plain attribute or an aggregate over one
// (COUNT also accepts *).
type SelectItem struct {
	Func AggFunc
	// Attr is the attribute, or "*" for COUNT(*).
	Attr string
}

// Label renders the item's output column name.
func (it SelectItem) Label() string {
	if it.Func == AggNone {
		return it.Attr
	}
	return it.Func.String() + "(" + it.Attr + ")"
}

// Output is a fully decoded query answer: the shell-facing form.
type Output struct {
	Attrs []string
	Rows  [][]string
	// Text, when non-empty, replaces the tabular rendering — EXPLAIN's
	// plan and EXPLAIN ANALYZE's span tree come back here.
	Text string
	// Stats carries the engine run's statistics when the statement executed
	// a join (nil for EXISTS, which only probes for one answer). It includes
	// the shared index catalog's counters, so the shell can show whether a
	// statement ran warm (zero catalog misses added) or had to build.
	Stats *core.Stats
}

// String renders the output as an aligned table with a row count, or
// returns Text verbatim for EXPLAIN forms.
func (o *Output) String() string {
	if o.Text != "" {
		return o.Text
	}
	return cli.FormatTable(o.Attrs, o.Rows)
}

// aggregate evaluates grouped aggregates over decoded rows. attrs names the
// input columns; items and groupBy come from the statement.
func aggregate(attrs []string, rows [][]string, items []SelectItem, groupBy []string) (*Output, error) {
	col := make(map[string]int, len(attrs))
	for i, a := range attrs {
		col[a] = i
	}
	groupCols := make([]int, len(groupBy))
	for i, g := range groupBy {
		c, ok := col[g]
		if !ok {
			return nil, fmt.Errorf("mmql: GROUP BY references unknown attribute %q", g)
		}
		groupCols[i] = c
	}
	// Validate items: plain attributes must be grouped; aggregates must
	// reference known attributes.
	grouped := make(map[string]bool, len(groupBy))
	for _, g := range groupBy {
		grouped[g] = true
	}
	for _, it := range items {
		if it.Func == AggNone {
			if !grouped[it.Attr] {
				return nil, fmt.Errorf("mmql: %q must appear in GROUP BY or inside an aggregate", it.Attr)
			}
			continue
		}
		if it.Attr == "*" {
			if it.Func != AggCount {
				return nil, fmt.Errorf("mmql: %s(*) is not allowed; only COUNT(*)", it.Func)
			}
			continue
		}
		if _, ok := col[it.Attr]; !ok {
			return nil, fmt.Errorf("mmql: aggregate references unknown attribute %q", it.Attr)
		}
	}

	type groupState struct {
		key    []string
		counts []int
		sums   []float64
		mins   []string
		maxs   []string
		seen   []bool
	}
	groups := make(map[string]*groupState)
	var orderKeys []string
	for _, row := range rows {
		key := make([]string, len(groupCols))
		for i, c := range groupCols {
			key[i] = row[c]
		}
		k := strings.Join(key, "\x00")
		g, ok := groups[k]
		if !ok {
			g = &groupState{
				key:    key,
				counts: make([]int, len(items)),
				sums:   make([]float64, len(items)),
				mins:   make([]string, len(items)),
				maxs:   make([]string, len(items)),
				seen:   make([]bool, len(items)),
			}
			groups[k] = g
			orderKeys = append(orderKeys, k)
		}
		for i, it := range items {
			if it.Func == AggNone {
				continue
			}
			if it.Attr == "*" {
				g.counts[i]++
				continue
			}
			v := row[col[it.Attr]]
			g.counts[i]++
			switch it.Func {
			case AggSum:
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return nil, fmt.Errorf("mmql: SUM(%s): non-numeric value %q", it.Attr, v)
				}
				g.sums[i] += f
			case AggMin:
				if !g.seen[i] || compareMaybeNumeric(v, g.mins[i]) < 0 {
					g.mins[i] = v
				}
			case AggMax:
				if !g.seen[i] || compareMaybeNumeric(v, g.maxs[i]) > 0 {
					g.maxs[i] = v
				}
			}
			g.seen[i] = true
		}
	}
	sort.Strings(orderKeys)

	out := &Output{}
	for _, it := range items {
		out.Attrs = append(out.Attrs, it.Label())
	}
	groupPos := make(map[string]int, len(groupBy))
	for i, g := range groupBy {
		groupPos[g] = i
	}
	for _, k := range orderKeys {
		g := groups[k]
		row := make([]string, len(items))
		for i, it := range items {
			switch {
			case it.Func == AggNone:
				row[i] = g.key[groupPos[it.Attr]]
			case it.Func == AggCount:
				row[i] = strconv.Itoa(g.counts[i])
			case it.Func == AggSum:
				row[i] = strconv.FormatFloat(g.sums[i], 'g', -1, 64)
			case it.Func == AggMin:
				row[i] = g.mins[i]
			case it.Func == AggMax:
				row[i] = g.maxs[i]
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// compareMaybeNumeric compares numerically when both values parse as
// numbers, lexicographically otherwise — so MIN(price) behaves sanely on
// numeric text without a type system.
func compareMaybeNumeric(a, b string) int {
	fa, ea := strconv.ParseFloat(a, 64)
	fb, eb := strconv.ParseFloat(b, 64)
	if ea == nil && eb == nil {
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		default:
			return 0
		}
	}
	return strings.Compare(a, b)
}
