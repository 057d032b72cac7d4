// Command experiments regenerates the figures and examples of the paper's
// evaluation and prints their measurements to stdout:
//
//   - Figure 1: the multi-model example query and its answers.
//   - Figure 2 / Example 3.3: the twig transformation and the exact AGM
//     exponents (5 for the twig alone, 7/2 for the full query).
//   - Figure 3 / Example 3.4: XJoin vs. the baseline over a sweep of n —
//     running time and intermediate result size, with the ratios the
//     paper's bar chart reports.
//   - Ablation: attribute-order strategies and the A-D edge modes (lazy,
//     materialized, post-hoc) at n=8.
//
// Usage: experiments [-ns 2,4,6,8,10] [-reps 3]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/harness"
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
	fmt.Print(harness.FormatTable(proj.Attrs, cells))
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
	rows, err := harness.RunFigure3(ns, reps)
	if err != nil {
		return err
	}
	fmt.Print(harness.FormatFigure3(rows))
	fmt.Println()
	return nil
}

func ablation(reps int) error {
	fmt.Println("=== Ablation: attribute order and A-D edge modes (n=8) ===")
	rows, err := harness.RunOrderAblation(8, reps)
	if err != nil {
		return err
	}
	fmt.Print(harness.FormatAblation(rows))
	return nil
}
