package mmql

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Statement is a parsed query.
type Statement struct {
	// Items are the projected attributes and aggregates; nil means all ("*").
	Items []SelectItem
	// Tables are the FROM clause's relational sources in order.
	Tables []string
	// Twigs are the FROM clause's TWIG patterns in order.
	Twigs []TwigSource
	// Filters are the WHERE clause's equality selections in order.
	Filters []Filter
	// GroupBy lists the grouping attributes (empty without GROUP BY).
	GroupBy []string
	// Algo is "xjoin", "xjoin-posthoc" (VIA xjoinposthoc),
	// "xjoin-materialized" (VIA xjoinmat), "xjoin-hybrid" (VIA hybrid — the
	// cost-based binary/WCOJ planner), "xjoin-binary" (VIA binary — forced
	// hash joins) or "baseline" ("" defaults to xjoin, whose A-D edges
	// filter lazily).
	Algo string
	// Limit caps the number of answers (0 = unlimited). When it can be
	// pushed into the engine the join terminates early.
	Limit int
	// Exists marks an EXISTS-prefixed statement: report whether the query
	// has at least one answer instead of enumerating them.
	Exists bool
	// Explain marks an EXPLAIN-prefixed statement: render the plan
	// without executing. With Analyze also set (EXPLAIN ANALYZE ...) the
	// statement executes for real under a trace and the output is the
	// span tree with per-phase wall times and per-level join counters.
	Explain bool
	Analyze bool
	// Src is the statement's source text when it came through Parse —
	// the label traces and the slow-query log identify the query by.
	Src string

	// parseDur is how long Parse took, surfaced as the trace's parse span.
	parseDur time.Duration
}

// label identifies the statement in traces and the slow-query log.
func (st *Statement) label() string {
	if st.Src != "" {
		return st.Src
	}
	return "mmql statement"
}

// Streamable reports whether the statement's answers can leave row by row
// with unchanged values: aggregates, GROUP BY and EXISTS need the whole
// result (or a probe), EXPLAIN describes a run, and VIA baseline has no
// streaming executor; plain SELECTs stream. Streaming skips the
// materialized path's sort and dedup — callers get the engine's answer
// stream order, possibly with duplicate projected rows (documented at the
// serving layer).
func (st *Statement) Streamable() bool {
	return !st.Explain && st.Algo != "baseline" && !st.Exists && !st.HasAggregates() && len(st.GroupBy) == 0
}

// HasAggregates reports whether any select item is an aggregate.
func (st *Statement) HasAggregates() bool {
	for _, it := range st.Items {
		if it.Func != AggNone {
			return true
		}
	}
	return false
}

// Filter is one attribute = 'value' selection.
type Filter struct {
	Attr  string
	Value string
}

// TwigSource is one TWIG clause: a pattern, optionally bound to a named
// document with IN 'name' (the default document otherwise).
type TwigSource struct {
	Pattern string
	Doc     string
}

// Parse parses one statement.
func Parse(src string) (*Statement, error) {
	start := time.Now()
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	st, err := p.statement()
	if err != nil {
		return nil, err
	}
	st.Src = strings.TrimSpace(src)
	st.parseDur = time.Since(start)
	return st, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

// keyword consumes an identifier equal (case-insensitively) to kw.
func (p *parser) keyword(kw string) bool {
	if p.cur().kind == tokIdent && strings.EqualFold(p.cur().text, kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.keyword(kw) {
		return fmt.Errorf("mmql: expected %s, found %s", strings.ToUpper(kw), p.cur())
	}
	return nil
}

func (p *parser) statement() (*Statement, error) {
	st := &Statement{}
	if p.keyword("explain") {
		st.Explain = true
		if p.keyword("analyze") {
			st.Analyze = true
		}
	}
	if p.keyword("exists") {
		st.Exists = true
	}
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	if p.cur().kind == tokStar {
		p.next()
	} else {
		items, err := p.selectItems()
		if err != nil {
			return nil, err
		}
		st.Items = items
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	for {
		switch {
		case p.keyword("twig"):
			if p.cur().kind != tokString {
				return nil, fmt.Errorf("mmql: TWIG needs a quoted pattern, found %s", p.cur())
			}
			src := TwigSource{Pattern: p.next().text}
			if p.keyword("in") {
				if p.cur().kind != tokString {
					return nil, fmt.Errorf("mmql: IN needs a quoted document name, found %s", p.cur())
				}
				src.Doc = p.next().text
			}
			st.Twigs = append(st.Twigs, src)
		case p.cur().kind == tokIdent:
			st.Tables = append(st.Tables, p.next().text)
		default:
			return nil, fmt.Errorf("mmql: expected a table or TWIG source, found %s", p.cur())
		}
		if p.cur().kind != tokComma {
			break
		}
		p.next()
	}
	if p.keyword("where") {
		for {
			if p.cur().kind != tokIdent {
				return nil, fmt.Errorf("mmql: expected an attribute in WHERE, found %s", p.cur())
			}
			attr := p.next().text
			if p.cur().kind != tokEq {
				return nil, fmt.Errorf("mmql: expected = after %q, found %s", attr, p.cur())
			}
			p.next()
			if p.cur().kind != tokString {
				return nil, fmt.Errorf("mmql: expected a quoted value for %q, found %s", attr, p.cur())
			}
			st.Filters = append(st.Filters, Filter{Attr: attr, Value: p.next().text})
			if !p.keyword("and") {
				break
			}
		}
	}
	if p.keyword("group") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		cols, err := p.identList()
		if err != nil {
			return nil, err
		}
		st.GroupBy = cols
	}
	if p.keyword("via") {
		if p.cur().kind != tokIdent {
			return nil, fmt.Errorf("mmql: expected an algorithm after VIA, found %s", p.cur())
		}
		algo := strings.ToLower(p.next().text)
		switch algo {
		case "xjoin", "baseline":
			st.Algo = algo
		case "xjoinposthoc":
			// The paper's plain Algorithm 1: A-D edges validate only on
			// final results (lazy in-join filtering is the xjoin default).
			st.Algo = "xjoin-posthoc"
		case "xjoinmat":
			// The materialized A-D oracle, for comparisons.
			st.Algo = "xjoin-materialized"
		case "hybrid":
			// The cost-based hybrid planner: binary hash joins for the
			// acyclic fringe, generic join for the cyclic core.
			st.Algo = "xjoin-hybrid"
		case "binary":
			// Forced binary hash joins per connected component — the
			// classic plan, for comparisons against the hybrid.
			st.Algo = "xjoin-binary"
		default:
			return nil, fmt.Errorf("mmql: unknown algorithm %q (want xjoin, xjoinposthoc, xjoinmat, hybrid, binary or baseline)", algo)
		}
	}
	if p.keyword("limit") {
		if p.cur().kind != tokNumber {
			return nil, fmt.Errorf("mmql: LIMIT needs a number, found %s", p.cur())
		}
		n, err := strconv.Atoi(p.next().text)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("mmql: LIMIT must be a positive integer")
		}
		st.Limit = n
	}
	if p.cur().kind != tokEOF {
		return nil, fmt.Errorf("mmql: unexpected trailing %s", p.cur())
	}
	if len(st.Tables) == 0 && len(st.Twigs) == 0 {
		return nil, fmt.Errorf("mmql: FROM names no sources")
	}
	if st.Exists {
		if st.Algo == "baseline" {
			return nil, fmt.Errorf("mmql: EXISTS requires a streaming algorithm (any but baseline)")
		}
		if st.HasAggregates() || len(st.GroupBy) > 0 {
			return nil, fmt.Errorf("mmql: EXISTS cannot combine with aggregates or GROUP BY")
		}
		if st.Limit > 0 {
			return nil, fmt.Errorf("mmql: EXISTS cannot combine with LIMIT")
		}
	}
	if len(st.GroupBy) > 0 && st.Items == nil {
		return nil, fmt.Errorf("mmql: GROUP BY requires an explicit select list")
	}
	if st.HasAggregates() && len(st.GroupBy) == 0 {
		// Aggregates without GROUP BY aggregate the whole result (one group
		// over no key columns) — only pure-aggregate selects make sense.
		for _, it := range st.Items {
			if it.Func == AggNone {
				return nil, fmt.Errorf("mmql: %q must appear in GROUP BY or inside an aggregate", it.Attr)
			}
		}
	}
	return st, nil
}

// selectItems parses the SELECT list: attributes and aggregates.
func (p *parser) selectItems() ([]SelectItem, error) {
	var out []SelectItem
	for {
		if p.cur().kind != tokIdent {
			return nil, fmt.Errorf("mmql: expected an attribute or aggregate, found %s", p.cur())
		}
		name := p.next().text
		if p.cur().kind == tokLParen {
			fn := aggByName(name)
			if fn == AggNone {
				return nil, fmt.Errorf("mmql: unknown aggregate %q (want COUNT, SUM, MIN or MAX)", name)
			}
			p.next()
			var attr string
			switch p.cur().kind {
			case tokStar:
				attr = "*"
				p.next()
			case tokIdent:
				attr = p.next().text
			default:
				return nil, fmt.Errorf("mmql: expected an attribute or * inside %s(), found %s", name, p.cur())
			}
			if p.cur().kind != tokRParen {
				return nil, fmt.Errorf("mmql: missing ) after %s(%s", name, attr)
			}
			p.next()
			if attr == "*" && fn != AggCount {
				return nil, fmt.Errorf("mmql: %s(*) is not allowed; only COUNT(*)", name)
			}
			out = append(out, SelectItem{Func: fn, Attr: attr})
		} else {
			out = append(out, SelectItem{Attr: name})
		}
		if p.cur().kind != tokComma {
			return out, nil
		}
		p.next()
	}
}

func aggByName(name string) AggFunc {
	switch strings.ToLower(name) {
	case "count":
		return AggCount
	case "sum":
		return AggSum
	case "min":
		return AggMin
	case "max":
		return AggMax
	default:
		return AggNone
	}
}

func (p *parser) identList() ([]string, error) {
	var out []string
	for {
		if p.cur().kind != tokIdent {
			return nil, fmt.Errorf("mmql: expected an attribute name, found %s", p.cur())
		}
		out = append(out, p.next().text)
		if p.cur().kind != tokComma {
			return out, nil
		}
		p.next()
	}
}
