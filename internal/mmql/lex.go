// Package mmql implements a small multi-model query language over the
// xmjoin public API — the front end the interactive shell (cmd/xmsh) and
// scripts use:
//
//	SELECT userID, ISBN, price
//	FROM R, TWIG '/invoices/orderLine[orderID][ISBN]/price'
//	WHERE userID = 'jack'
//	VIA xjoin
//
// FROM mixes relational tables (by name) and any number of TWIG patterns;
// attributes with equal names join. WHERE supports conjunctive equality
// selections. VIA picks the algorithm (xjoin, xjoinposthoc, xjoinmat,
// hybrid, binary, baseline; default xjoin — which filters A-D edges through
// the lazy region-interval index, xjoinposthoc restores the paper's plain
// Algorithm 1, xjoinmat the materialized A-D oracle, hybrid and binary pick
// the cost-based planner's plan modes).
// LIMIT N stops the join after N answers (pushed into the engine
// whenever safe, so the join terminates early — in parallel too), and an
// EXISTS prefix (EXISTS SELECT ...) turns the statement into an existence
// check that stops at the first validated answer.
package mmql

import (
	"fmt"
	"strings"
)

type tokenKind int

const (
	tokIdent tokenKind = iota
	tokString
	tokNumber
	tokComma
	tokStar
	tokEq
	tokLParen
	tokRParen
	tokEOF
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokString:
		return fmt.Sprintf("'%s'", t.text)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// lex splits the input into tokens. Strings use single quotes with ”
// escaping a quote, SQL style.
func lex(src string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == ',':
			toks = append(toks, token{tokComma, ",", i})
			i++
		case c == '*':
			toks = append(toks, token{tokStar, "*", i})
			i++
		case c == '=':
			toks = append(toks, token{tokEq, "=", i})
			i++
		case c == '(':
			toks = append(toks, token{tokLParen, "(", i})
			i++
		case c == ')':
			toks = append(toks, token{tokRParen, ")", i})
			i++
		case c == '\'':
			start := i
			i++
			var sb strings.Builder
			for {
				if i >= len(src) {
					return nil, fmt.Errorf("mmql: unterminated string starting at offset %d", start)
				}
				if src[i] == '\'' {
					if i+1 < len(src) && src[i+1] == '\'' {
						sb.WriteByte('\'')
						i += 2
						continue
					}
					i++
					break
				}
				sb.WriteByte(src[i])
				i++
			}
			toks = append(toks, token{tokString, sb.String(), start})
		case c >= '0' && c <= '9':
			start := i
			for i < len(src) && src[i] >= '0' && src[i] <= '9' {
				i++
			}
			toks = append(toks, token{tokNumber, src[start:i], start})
		case isIdentStart(c):
			start := i
			for i < len(src) && isIdentPart(src[i]) {
				i++
			}
			toks = append(toks, token{tokIdent, src[start:i], start})
		default:
			return nil, fmt.Errorf("mmql: unexpected character %q at offset %d", c, i)
		}
	}
	toks = append(toks, token{tokEOF, "", len(src)})
	return toks, nil
}

func isIdentStart(c byte) bool {
	return c == '_' || c == '@' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9') || c == '.' || c == '+' || c == '-'
}
