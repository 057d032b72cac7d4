// Command experiments regenerates the figures and examples of the paper's
// evaluation and prints their measurements to stdout:
//
//   - Figure 1: the multi-model example query and its answers.
//   - Figure 2 / Example 3.3: the twig transformation and the exact AGM
//     exponents (5 for the twig alone, 7/2 for the full query).
//   - Figure 3 / Example 3.4: XJoin vs. the baseline over a sweep of n —
//     running time and intermediate result size, with the ratios the
//     paper's bar chart reports.
//   - Ablation: attribute orders (default, reversed, min-bound) and the
//     A-D edge modes (lazy, materialized, post-hoc) at n=8.
//
// Usage: experiments [-ns 2,4,6,8,10] [-reps 3]
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/xmldb"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	nsFlag := flag.String("ns", "2,4,6,8,10", "comma-separated Figure 3 scales")
	reps := flag.Int("reps", 3, "timing repetitions (minimum is reported)")
	flag.Parse()
	ns, err := cli.ParseIntList(*nsFlag)
	if err != nil {
		return fmt.Errorf("bad -ns: %w", err)
	}

	if err := figure1(); err != nil {
		return err
	}
	if err := figure2(); err != nil {
		return err
	}
	if err := figure3(ns, *reps); err != nil {
		return err
	}
	return ablation(*reps)
}

func figure1() error {
	fmt.Println("=== Figure 1: join between XML and Relational ===")
	inst, err := datagen.Figure1()
	if err != nil {
		return err
	}
	q, err := core.NewQuery(inst.Doc, inst.Pattern, inst.Tables)
	if err != nil {
		return err
	}
	res, err := core.XJoin(q, core.Options{})
	if err != nil {
		return err
	}
	proj, err := res.Project([]string{"userID", "ISBN", "price"})
	if err != nil {
		return err
	}
	core.SortResultTuples(proj)
	var cells [][]string
	for _, t := range proj.Tuples {
		row := make([]string, len(t))
		for i, v := range t {
			row[i] = xmldb.DisplayValue(inst.Dict, v)
		}
		cells = append(cells, row)
	}
	fmt.Print(cli.FormatTable(proj.Attrs, cells))
	fmt.Println()
	return nil
}

func figure2() error {
	fmt.Println("=== Figure 2 / Example 3.3: size bounds via the transformation ===")
	inst, err := datagen.Example33(10)
	if err != nil {
		return err
	}
	q, err := core.NewQuery(inst.Doc, inst.Pattern, inst.Tables)
	if err != nil {
		return err
	}
	b, err := core.ComputeBounds(q)
	if err != nil {
		return err
	}
	fmt.Println("transformed hypergraph (relational atoms + derived path relations):")
	fmt.Print(b.Paper.String())
	fmt.Printf("twig-only exponent (paper: 5):      rho* = %s\n", b.TwigExponent.RatString())
	fmt.Printf("full-query exponent (paper: 7/2):   rho* = %s\n", b.Exponent.RatString())
	fmt.Printf("weighted bound at n=%d:             %.6g\n", inst.N, b.WeightedBound)
	fmt.Println()
	return nil
}

func figure3(ns []int, reps int) error {
	fmt.Println("=== Figure 3: XJoin vs baseline (Example 3.4 workload) ===")
	headers := []string{"n", "|Q|", "Q1", "Q2",
		"xjoin_peak", "base_peak", "size_ratio",
		"xjoin_time", "base_time", "time_ratio"}
	var cells [][]string
	for _, n := range ns {
		q, err := example34(n)
		if err != nil {
			return err
		}
		x, xt, err := timeMin(reps, func() (*core.Result, error) { return core.XJoin(q, core.Options{}) })
		if err != nil {
			return err
		}
		b, bt, err := timeMin(reps, func() (*core.Result, error) { return core.Baseline(q, core.Options{}) })
		if err != nil {
			return err
		}
		if !core.EqualResults(x, b) {
			return fmt.Errorf("algorithms disagree at n=%d (%d vs %d tuples)", n, len(x.Tuples), len(b.Tuples))
		}
		xs, bs := x.Stats, b.Stats
		cells = append(cells, []string{
			fmt.Sprint(n), fmt.Sprint(xs.Output), fmt.Sprint(bs.Q1Size), fmt.Sprint(bs.Q2Size),
			fmt.Sprint(xs.PeakIntermediate), fmt.Sprint(bs.PeakIntermediate),
			ratio(float64(bs.PeakIntermediate), float64(xs.PeakIntermediate)),
			fmtDur(xt), fmtDur(bt), ratio(float64(bt), float64(xt)),
		})
	}
	fmt.Print(cli.FormatTable(headers, cells))
	fmt.Println()
	return nil
}

// ablation compares attribute orders and the A-D edge modes on Example 3.4
// at n=8: PA — the default, its reverse, and the min-bound order — and how
// the cut A-D edges participate — lazily through the region index by
// default, through the materialized quadratic oracle, or post-hoc as in
// the paper's plain Algorithm 1. struct_ix and struct_bytes show the
// region index state each mode holds.
func ablation(reps int) error {
	const n = 8
	fmt.Printf("=== Ablation: attribute order and A-D edge modes (n=%d) ===\n", n)
	q, err := example34(n)
	if err != nil {
		return err
	}
	reversed := core.DefaultOrder(q)
	slices.Reverse(reversed)
	minBound, err := core.MinBoundOrder(q)
	if err != nil {
		return err
	}
	configs := []struct {
		name string
		opts core.Options
	}{
		{"default order", core.Options{}},
		{"reversed order", core.Options{Order: reversed}},
		{"min-bound order", core.Options{Order: minBound}},
		{"lazy A-D (default)", core.Options{AD: core.ADLazy}},
		{"materialized A-D", core.Options{AD: core.ADMaterialized}},
		{"post-hoc A-D", core.Options{AD: core.ADPostHoc}},
	}
	headers := []string{"config", "time", "peak_intermediate", "total_intermediate", "struct_ix", "struct_bytes"}
	var cells [][]string
	for _, c := range configs {
		res, d, err := timeMin(reps, func() (*core.Result, error) { return core.XJoin(q, c.opts) })
		if err != nil {
			return err
		}
		s := res.Stats
		cells = append(cells, []string{c.name, fmtDur(d), fmt.Sprint(s.PeakIntermediate), fmt.Sprint(s.TotalIntermediate),
			fmt.Sprint(s.StructIndexes), fmt.Sprint(s.StructIndexBytes)})
	}
	fmt.Print(cli.FormatTable(headers, cells))
	return nil
}

func example34(n int) (*core.Query, error) {
	inst, err := datagen.Example34(n)
	if err != nil {
		return nil, err
	}
	return core.NewQuery(inst.Doc, inst.Pattern, inst.Tables)
}

// timeMin runs f reps times (at least once) and returns its last result
// with the fastest run's time.
func timeMin(reps int, f func() (*core.Result, error)) (*core.Result, time.Duration, error) {
	var res *core.Result
	var best time.Duration
	for i := 0; i < max(reps, 1); i++ {
		start := time.Now()
		r, err := f()
		if err != nil {
			return nil, 0, err
		}
		if d := time.Since(start); i == 0 || d < best {
			best = d
		}
		res = r
	}
	return res, best, nil
}

// ratio renders a/b as the paper's bar-chart factor, 0 when b is not
// positive.
func ratio(a, b float64) string {
	if b <= 0 {
		return "0.0x"
	}
	return fmt.Sprintf("%.1fx", a/b)
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
