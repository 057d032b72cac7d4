// Package cli holds the small helpers shared by the command-line tools and
// the text renderings of results — flag parsing and the aligned table —
// kept out of the mains so they are unit-testable.
package cli

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseRelSpec parses a relational atom specification "NAME(a,b,c)".
func ParseRelSpec(spec string) (name string, attrs []string, err error) {
	open := strings.IndexByte(spec, '(')
	if open <= 0 || !strings.HasSuffix(spec, ")") {
		return "", nil, fmt.Errorf("cli: bad relation %q, want NAME(a,b,...)", spec)
	}
	name = strings.TrimSpace(spec[:open])
	body := spec[open+1 : len(spec)-1]
	for _, a := range strings.Split(body, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			return "", nil, fmt.Errorf("cli: bad relation %q: empty attribute", spec)
		}
		attrs = append(attrs, a)
	}
	return name, attrs, nil
}

// ParseTableSpec parses "NAME=PATH".
func ParseTableSpec(spec string) (name, path string, err error) {
	name, path, ok := strings.Cut(spec, "=")
	if !ok || name == "" || path == "" {
		return "", "", fmt.Errorf("cli: bad table %q, want NAME=FILE.csv", spec)
	}
	return name, path, nil
}

// ParseLimit parses a LIMIT-style flag value: a nonnegative integer, with
// "" and "0" meaning no limit.
func ParseLimit(s string) (int, error) {
	if strings.TrimSpace(s) == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		return 0, fmt.Errorf("cli: bad limit %q: %w", s, err)
	}
	if n < 0 {
		return 0, fmt.Errorf("cli: limit %q must be nonnegative", s)
	}
	return n, nil
}

// ParseIntList parses a comma-separated list of positive integers.
func ParseIntList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("cli: bad integer list %q: %w", s, err)
		}
		if n <= 0 {
			return nil, fmt.Errorf("cli: integer list %q must be positive", s)
		}
		out = append(out, n)
	}
	return out, nil
}

// FormatTable renders rows as an aligned text table under headers: columns
// separated by two spaces, every column but the last padded to its widest
// cell, and a closing "(N rows)" line.
func FormatTable(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			widths[i] = max(widths[i], len(c))
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			if i == len(cells)-1 {
				sb.WriteString(c) // no trailing padding
			} else {
				fmt.Fprintf(&sb, "%-*s", widths[i], c)
			}
		}
		sb.WriteString("\n")
	}
	writeRow(headers)
	for _, row := range rows {
		writeRow(row)
	}
	fmt.Fprintf(&sb, "(%d rows)\n", len(rows))
	return sb.String()
}
