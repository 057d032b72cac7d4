package xmjoin

import (
	"fmt"
	"math/big"
	"slices"
	"strings"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/relational"
	"repro/internal/xmldb"
)

// Result is a materialized query answer with string-decoded access.
type Result struct {
	db *Database
	r  *core.Result
}

// Attrs names the tuple positions.
func (r *Result) Attrs() []string { return r.r.Attrs }

// Len reports the number of answer tuples.
func (r *Result) Len() int { return len(r.r.Tuples) }

// Row decodes the i-th tuple to strings (structural XML nodes render as
// "<node#N>").
func (r *Result) Row(i int) []string {
	t := r.r.Tuples[i]
	out := make([]string, len(t))
	for j, v := range t {
		out[j] = xmldb.DisplayValue(r.db.dict, v)
	}
	return out
}

// Stats describes the run that produced this result.
func (r *Result) Stats() core.Stats { return r.r.Stats }

// Project reorders and deduplicates the result onto the given attributes.
func (r *Result) Project(attrs ...string) (*Result, error) {
	pr, err := r.r.Project(attrs)
	if err != nil {
		return nil, err
	}
	return &Result{db: r.db, r: pr}, nil
}

// Filter returns a new result holding the rows whose decoded string form
// satisfies keep. Statistics are inherited from the unfiltered run.
func (r *Result) Filter(keep func(row []string) bool) *Result {
	out := &Result{db: r.db, r: &core.Result{Attrs: r.r.Attrs, Stats: r.r.Stats}}
	for i := range r.r.Tuples {
		if keep(r.Row(i)) {
			out.r.Tuples = append(out.r.Tuples, r.r.Tuples[i])
		}
	}
	return out
}

// Sort orders the tuples lexicographically by their decoded string values,
// making output deterministic and human-stable. It decodes nothing per
// comparison: each distinct value of the result is decoded once and ranked
// by its display string — equal strings get equal rank, so a structural
// node and a text value reading "<node#N>" tie — and the tuples are then
// stably sorted on their rank vectors, one counting pass per column from
// the last to the first. Tuples that decode to equal rows keep their
// relative order.
func (r *Result) Sort() *Result {
	ts, w := r.r.Tuples, len(r.r.Attrs)
	if len(ts) < 2 {
		return r
	}
	// Number the distinct values in first-seen order.
	slot := make(map[relational.Value]int32)
	var vals []relational.Value
	cells := make([]int32, len(ts)*w)
	for i, t := range ts {
		for j, v := range t {
			s, ok := slot[v]
			if !ok {
				s = int32(len(vals))
				slot[v] = s
				vals = append(vals, v)
			}
			cells[i*w+j] = s
		}
	}
	// Rank the numbers by display string.
	disp := make([]string, len(vals))
	byDisp := make([]int32, len(vals))
	for s, v := range vals {
		disp[s] = xmldb.DisplayValue(r.db.dict, v)
		byDisp[s] = int32(s)
	}
	slices.SortFunc(byDisp, func(a, b int32) int { return strings.Compare(disp[a], disp[b]) })
	rank := make([]int32, len(vals))
	for i, s := range byDisp {
		if i > 0 && disp[s] == disp[byDisp[i-1]] {
			rank[s] = rank[byDisp[i-1]]
		} else {
			rank[s] = int32(i)
		}
	}
	for i, s := range cells {
		cells[i] = rank[s]
	}
	// Least significant column first: a stable counting sort per column
	// leaves the order sorted on the whole rank vector.
	perm, next := make([]int32, len(ts)), make([]int32, len(ts))
	for i := range perm {
		perm[i] = int32(i)
	}
	count := make([]int32, len(vals)+1)
	for j := w - 1; j >= 0; j-- {
		clear(count)
		for _, p := range perm {
			count[cells[int(p)*w+j]+1]++
		}
		for k := 1; k < len(count); k++ {
			count[k] += count[k-1]
		}
		for _, p := range perm {
			k := cells[int(p)*w+j]
			next[count[k]] = p
			count[k]++
		}
		perm, next = next, perm
	}
	sorted := make([]relational.Tuple, len(ts))
	for i, p := range perm {
		sorted[i] = ts[p]
	}
	copy(ts, sorted)
	return r
}

// Equal reports whether two results hold the same tuple set (attribute
// order insensitive).
func (r *Result) Equal(o *Result) bool { return core.EqualResults(r.r, o.r) }

// String renders the result as an aligned text table with a row count.
func (r *Result) String() string {
	rows := make([][]string, r.Len())
	for i := range rows {
		rows[i] = r.Row(i)
	}
	return cli.FormatTable(r.Attrs(), rows)
}

// Bounds exposes the query's worst-case size bounds.
type Bounds struct {
	b *core.Bounds
}

// Exponent is the exact AGM exponent ρ* of the full multi-model query:
// with all relations of size at most N, |Q| <= N^ρ*.
func (b *Bounds) Exponent() *big.Rat { return b.b.Exponent }

// TwigExponent is ρ* of the XML-only subquery Q2 (nil without a twig).
func (b *Bounds) TwigExponent() *big.Rat { return b.b.TwigExponent }

// RelationalExponent is ρ* of the relational-only subquery Q1 (nil without
// tables).
func (b *Bounds) RelationalExponent() *big.Rat { return b.b.RelationalExponent }

// Weighted instantiates the bound with the actual relation cardinalities.
func (b *Bounds) Weighted() float64 { return b.b.WeightedBound }

// Hypergraph renders the transformed hypergraph (Figure 2's output).
func (b *Bounds) Hypergraph() string { return b.b.Paper.String() }

// String summarizes the bounds.
func (b *Bounds) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "AGM exponent rho* = %s", b.b.Exponent.RatString())
	if b.b.RelationalExponent != nil {
		fmt.Fprintf(&sb, "; relational-only (Q1) = %s", b.b.RelationalExponent.RatString())
	}
	if b.b.TwigExponent != nil {
		fmt.Fprintf(&sb, "; twig-only (Q2) = %s", b.b.TwigExponent.RatString())
	}
	fmt.Fprintf(&sb, "; weighted bound = %.6g", b.b.WeightedBound)
	return sb.String()
}
