// Package harness runs the paper's experiments end to end — workload
// generation, both algorithms, timing, intermediate-size accounting — and
// formats the tables cmd/experiments prints: Figure 1, the Example 3.3
// bounds, the Figure 3 sweep and the order / A-D mode ablation.
package harness

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
)

// Figure3Row is one point of the Figure 3 experiment: both algorithms on
// the Example 3.4 workload at scale n.
type Figure3Row struct {
	N             int
	Output        int
	XJoinTime     time.Duration
	BaselineTime  time.Duration
	XJoinPeak     int
	BaselinePeak  int
	XJoinTotal    int
	BaselineTotal int
	Q1Size        int
	Q2Size        int
}

// TimeRatio is baseline time over XJoin time (the paper's bar chart metric).
func (r Figure3Row) TimeRatio() float64 {
	if r.XJoinTime <= 0 {
		return 0
	}
	return float64(r.BaselineTime) / float64(r.XJoinTime)
}

// SizeRatio is baseline peak intermediate over XJoin peak intermediate.
func (r Figure3Row) SizeRatio() float64 {
	if r.XJoinPeak <= 0 {
		return 0
	}
	return float64(r.BaselinePeak) / float64(r.XJoinPeak)
}

// RunFigure3 runs the Figure 3 experiment for each scale in ns, timing each
// algorithm as the minimum over reps runs (reps < 1 is treated as 1).
func RunFigure3(ns []int, reps int) ([]Figure3Row, error) {
	if reps < 1 {
		reps = 1
	}
	var rows []Figure3Row
	for _, n := range ns {
		inst, err := datagen.Example34(n)
		if err != nil {
			return nil, err
		}
		q, err := core.NewQuery(inst.Doc, inst.Pattern, inst.Tables)
		if err != nil {
			return nil, err
		}
		var row Figure3Row
		row.N = n

		var xres *core.Result
		row.XJoinTime, err = timeMin(reps, func() error {
			xres, err = core.XJoin(q, core.Options{})
			return err
		})
		if err != nil {
			return nil, err
		}
		var bres *core.Result
		row.BaselineTime, err = timeMin(reps, func() error {
			bres, err = core.Baseline(q, core.Options{})
			return err
		})
		if err != nil {
			return nil, err
		}
		if !core.EqualResults(xres, bres) {
			return nil, fmt.Errorf("harness: algorithms disagree at n=%d (%d vs %d tuples)",
				n, len(xres.Tuples), len(bres.Tuples))
		}
		row.Output = xres.Stats.Output
		row.XJoinPeak = xres.Stats.PeakIntermediate
		row.XJoinTotal = xres.Stats.TotalIntermediate
		row.BaselinePeak = bres.Stats.PeakIntermediate
		row.BaselineTotal = bres.Stats.TotalIntermediate
		row.Q1Size = bres.Stats.Q1Size
		row.Q2Size = bres.Stats.Q2Size
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatFigure3 renders the experiment as an aligned table.
func FormatFigure3(rows []Figure3Row) string {
	headers := []string{"n", "|Q|", "Q1", "Q2",
		"xjoin_peak", "base_peak", "size_ratio",
		"xjoin_time", "base_time", "time_ratio"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			fmt.Sprint(r.N), fmt.Sprint(r.Output), fmt.Sprint(r.Q1Size), fmt.Sprint(r.Q2Size),
			fmt.Sprint(r.XJoinPeak), fmt.Sprint(r.BaselinePeak), fmt.Sprintf("%.1fx", r.SizeRatio()),
			fmtDur(r.XJoinTime), fmtDur(r.BaselineTime), fmt.Sprintf("%.1fx", r.TimeRatio()),
		})
	}
	return FormatTable(headers, cells)
}

// AblationRow compares XJoin configurations on one workload. StructIx and
// StructBytes surface the region-interval structural index the run held
// (zero for post-hoc / materialized configurations), so the executor
// matrix shows what each A-D mode pays in index state.
type AblationRow struct {
	Name        string
	Time        time.Duration
	Peak        int
	Total       int
	StructIx    int
	StructBytes int64
}

// RunOrderAblation compares attribute-order strategies and A-D edge
// handling modes on Example 3.4 at scale n (the two design choices that
// matter: PA, and how the cut A-D edges participate —
// lazily through the region index by default, post-hoc as in the paper's
// plain Algorithm 1, or through the materialized quadratic oracle).
func RunOrderAblation(n, reps int) ([]AblationRow, error) {
	inst, err := datagen.Example34(n)
	if err != nil {
		return nil, err
	}
	q, err := core.NewQuery(inst.Doc, inst.Pattern, inst.Tables)
	if err != nil {
		return nil, err
	}
	configs := []struct {
		name string
		opts core.Options
	}{
		{"relational-first", core.Options{Strategy: core.OrderRelationalFirst}},
		{"document-order", core.Options{Strategy: core.OrderDocument}},
		{"greedy", core.Options{Strategy: core.OrderGreedy}},
		{"xjoin+ (lazy A-D, default)", core.Options{AD: core.ADLazy}},
		{"xjoin+ (materialized A-D)", core.Options{AD: core.ADMaterialized}},
		{"xjoin (post-hoc A-D)", core.Options{AD: core.ADPostHoc}},
	}
	var rows []AblationRow
	for _, c := range configs {
		var res *core.Result
		d, err := timeMin(reps, func() error {
			var e error
			res, e = core.XJoin(q, c.opts)
			return e
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Name: c.name, Time: d,
			Peak: res.Stats.PeakIntermediate, Total: res.Stats.TotalIntermediate,
			StructIx: res.Stats.StructIndexes, StructBytes: res.Stats.StructIndexBytes,
		})
	}
	return rows, nil
}

// FormatAblation renders an ablation comparison.
func FormatAblation(rows []AblationRow) string {
	headers := []string{"config", "time", "peak_intermediate", "total_intermediate", "struct_ix", "struct_bytes"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{r.Name, fmtDur(r.Time), fmt.Sprint(r.Peak), fmt.Sprint(r.Total),
			fmt.Sprint(r.StructIx), fmt.Sprint(r.StructBytes)})
	}
	return FormatTable(headers, cells)
}

// FormatTable renders an aligned text table with a header underline.
func FormatTable(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
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
	underline := make([]string, len(headers))
	for i := range underline {
		underline[i] = strings.Repeat("-", widths[i])
	}
	writeRow(underline)
	for _, row := range rows {
		writeRow(row)
	}
	return sb.String()
}

func fmtDur(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fus", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}

func timeMin(reps int, f func() error) (time.Duration, error) {
	var best time.Duration
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		d := time.Since(start)
		if i == 0 || d < best {
			best = d
		}
	}
	return best, nil
}
