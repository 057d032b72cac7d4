package xmjoin

// Benchmarks regenerating the paper's evaluation:
//
//   - BenchmarkFigure1* — the Figure 1 example query, both algorithms.
//   - BenchmarkFigure2Bound — the exact (big.Rat) LP bound derivation of
//     Figure 2 / Example 3.3.
//   - BenchmarkFigure3* — the Figure 3 experiment: XJoin vs the baseline
//     (and the XJoin+ extension) on the Example 3.4 worst-case workload,
//     swept over n. The per-op metrics include the peak intermediate size,
//     the quantity the paper's second bar reports.
//   - BenchmarkAblation* — design-choice ablations: attribute-order
//     strategies, XML twig matchers, and relational WCOJ engines.
//
// Run: go test -bench=. -benchmem .

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/relational"
	"repro/internal/twig"
	"repro/internal/wcoj"
	"repro/internal/xmatch"
)

func fig1Query(b *testing.B) *core.Query {
	b.Helper()
	inst, err := datagen.Figure1()
	if err != nil {
		b.Fatal(err)
	}
	q, err := core.NewQuery(inst.Doc, inst.Pattern, inst.Tables)
	if err != nil {
		b.Fatal(err)
	}
	return q
}

func BenchmarkFigure1XJoin(b *testing.B) {
	q := fig1Query(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.XJoin(q, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure1Baseline(b *testing.B) {
	q := fig1Query(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Baseline(q, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2Bound times the exact bound derivation of Example 3.3
// (twig transformation + two rational LPs), which must yield 5 and 7/2.
func BenchmarkFigure2Bound(b *testing.B) {
	inst, err := datagen.Example33(10)
	if err != nil {
		b.Fatal(err)
	}
	q, err := core.NewQuery(inst.Doc, inst.Pattern, inst.Tables)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bounds, err := core.ComputeBounds(q)
		if err != nil {
			b.Fatal(err)
		}
		if bounds.Exponent.RatString() != "7/2" || bounds.TwigExponent.RatString() != "5" {
			b.Fatalf("wrong exponents: %s, %s", bounds.Exponent.RatString(), bounds.TwigExponent.RatString())
		}
	}
}

var fig3Scales = []int{2, 4, 6, 8, 10}

func fig3Query(b *testing.B, n int) *core.Query {
	b.Helper()
	inst, err := datagen.Example34(n)
	if err != nil {
		b.Fatal(err)
	}
	q, err := core.NewQuery(inst.Doc, inst.Pattern, inst.Tables)
	if err != nil {
		b.Fatal(err)
	}
	return q
}

func BenchmarkFigure3XJoin(b *testing.B) {
	for _, n := range fig3Scales {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			q := fig3Query(b, n)
			var peak int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.XJoin(q, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				peak = res.Stats.PeakIntermediate
			}
			b.ReportMetric(float64(peak), "peak-tuples")
		})
	}
}

func BenchmarkFigure3XJoinPlus(b *testing.B) {
	for _, n := range fig3Scales {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			q := fig3Query(b, n)
			var peak int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.XJoin(q, core.Options{AD: core.ADLazy})
				if err != nil {
					b.Fatal(err)
				}
				peak = res.Stats.PeakIntermediate
			}
			b.ReportMetric(float64(peak), "peak-tuples")
		})
	}
}

func BenchmarkFigure3Baseline(b *testing.B) {
	for _, n := range fig3Scales {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			q := fig3Query(b, n)
			var peak int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.Baseline(q, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				peak = res.Stats.PeakIntermediate
			}
			b.ReportMetric(float64(peak), "peak-tuples")
		})
	}
}

// BenchmarkAblationOrder compares attribute orders at n=8 — the order half
// of cmd/experiments' ablation.
func BenchmarkAblationOrder(b *testing.B) {
	q := fig3Query(b, 8)
	reversed := core.DefaultOrder(q)
	slices.Reverse(reversed)
	minBound, err := core.MinBoundOrder(q)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		order []string
	}{
		{"default", core.DefaultOrder(q)},
		{"reversed", reversed},
		{"min-bound", minBound},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.XJoin(q, core.Options{Order: c.order}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationTwigMatch times the baseline's Q2 substrate, holistic
// TwigStack, on the worst-case document.
func BenchmarkAblationTwigMatch(b *testing.B) {
	inst, err := datagen.Example34(6)
	if err != nil {
		b.Fatal(err)
	}
	p := inst.Pattern
	b.Run("twigstack", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ms, _ := xmatch.TwigStackMatch(inst.Doc, p)
			if len(ms) == 0 {
				b.Fatal("no matches")
			}
		}
	})
}

// BenchmarkAblationPathMatch times TwigStack on a linear (path) query over
// the worst-case document.
func BenchmarkAblationPathMatch(b *testing.B) {
	inst, err := datagen.Example34(8)
	if err != nil {
		b.Fatal(err)
	}
	p := twig.MustParse("//A//C/E")
	b.Run("twigstack", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if ms, _ := xmatch.TwigStackMatch(inst.Doc, p); len(ms) == 0 {
				b.Fatal("no matches")
			}
		}
	})
}

// BenchmarkAblationParallel measures the parallel executor on the
// twig-only worst-case workload (large stages) against the serial one.
func BenchmarkAblationParallel(b *testing.B) {
	inst, err := datagen.Example34(8)
	if err != nil {
		b.Fatal(err)
	}
	q, err := core.NewQuery(inst.Doc, inst.Pattern, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.XJoin(q, core.Options{Parallelism: workers})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Tuples) != 8*8*8*8*8 {
					b.Fatalf("output %d", len(res.Tuples))
				}
			}
		})
	}
}

// BenchmarkAblationMinBoundPlanning isolates the cost of the bound-driven
// order search (O(k²) small LPs).
func BenchmarkAblationMinBoundPlanning(b *testing.B) {
	q := fig3Query(b, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.MinBoundOrder(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkValidationAdversarial stresses the final witness check: n²
// pairwise-consistent candidates, n survivors.
func BenchmarkValidationAdversarial(b *testing.B) {
	inst, err := datagen.ValidationAdversarial(32)
	if err != nil {
		b.Fatal(err)
	}
	q, err := core.NewQuery(inst.Doc, inst.Pattern, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.XJoin(q, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Tuples) != 32 {
			b.Fatalf("output %d", len(res.Tuples))
		}
	}
}

// BenchmarkAblationRelationalEngines compares the relational join engines
// on the AGM worst-case triangle (k²-size grid relations, k³ output).
func BenchmarkAblationRelationalEngines(b *testing.B) {
	const k = 24
	grid := func(name, x, y string) *relational.Table {
		t := relational.NewTable(name, relational.MustSchema(x, y))
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				t.MustAppend(relational.Value(i), relational.Value(j))
			}
		}
		return t
	}
	tables := []*relational.Table{grid("R", "a", "b"), grid("S", "b", "c"), grid("T", "a", "c")}
	order := []string{"a", "b", "c"}

	b.Run("leapfrog-triejoin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			count := 0
			if _, err := wcoj.LeapfrogTriejoin(tables, order, func(relational.Tuple) bool {
				count++
				return true
			}); err != nil {
				b.Fatal(err)
			}
			if count != k*k*k {
				b.Fatalf("output %d want %d", count, k*k*k)
			}
		}
	})
	b.Run("generic-join", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			atoms := []wcoj.Atom{
				wcoj.NewTableAtom(tables[0]), wcoj.NewTableAtom(tables[1]), wcoj.NewTableAtom(tables[2]),
			}
			res, err := wcoj.GenericJoin(atoms, order)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Tuples) != k*k*k {
				b.Fatalf("output %d", len(res.Tuples))
			}
		}
	})
	b.Run("hash-join-chain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, _, err := wcoj.ChainHashJoin("Q", tables)
			if err != nil {
				b.Fatal(err)
			}
			if out.Len() != k*k*k {
				b.Fatalf("output %d", out.Len())
			}
		}
	})
}

// BenchmarkValidation isolates the final structural-validation pass of
// Algorithm 1 on the twig-only worst-case query, where every candidate
// tuple needs a witness check.
func BenchmarkValidation(b *testing.B) {
	inst, err := datagen.Example34(4)
	if err != nil {
		b.Fatal(err)
	}
	q, err := core.NewQuery(inst.Doc, inst.Pattern, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.XJoin(q, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Tuples) != 4*4*4*4*4 {
			b.Fatalf("output %d", len(res.Tuples))
		}
	}
}

// BenchmarkTwigParse measures the twig parser on the running pattern.
func BenchmarkTwigParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := twig.Parse(datagen.PaperTwig); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHybridPlanModes is the PR 9 experiment: the cost-based hybrid
// planner against both pure strategies on CyclicCoreTail — a triangle
// whose pairwise joins are Θ(n²) against Θ(n) triangle output (so forced
// binary plans lose the core) glued to a bijective chain tail (cheap to
// pre-join, per-binding intersection work for the generic join). Each
// iteration builds a fresh query so every mode pays its full planning and
// materialization cost — nothing rides the per-query intermediate cache.
// Parallelism tracks GOMAXPROCS, so -cpu 1,4 sweeps serial and parallel.
func BenchmarkHybridPlanModes(b *testing.B) {
	for _, cfg := range []struct{ coreN, tailLen int }{
		{256, 2}, {1024, 3}, {2048, 4},
	} {
		tables, err := datagen.CyclicCoreTail(cfg.coreN, cfg.tailLen)
		if err != nil {
			b.Fatal(err)
		}
		// Hub triangle answers: the all-zero tuple plus three spoke
		// families; the chain is a bijection, adding none.
		want := 3*cfg.coreN + 1
		for _, mode := range []core.PlanMode{core.PlanWCOJ, core.PlanHybrid, core.PlanBinary} {
			b.Run(fmt.Sprintf("core%d_tail%d/%s", cfg.coreN, cfg.tailLen, mode), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					q, err := core.NewQuery(nil, nil, tables)
					if err != nil {
						b.Fatal(err)
					}
					res, err := core.XJoin(q, core.Options{Plan: mode, Parallelism: -1})
					if err != nil {
						b.Fatal(err)
					}
					if len(res.Tuples) != want {
						b.Fatalf("output %d, want %d", len(res.Tuples), want)
					}
				}
			})
		}
	}
}

// BenchmarkHybridSkewedTail swaps the bijective tail for the Skewed
// generator's 90/10 hot-key chain: the binary subplan's build sides stay
// small while probes concentrate, the regime hash joins like best.
func BenchmarkHybridSkewedTail(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	tables, err := datagen.CyclicCoreTailSkewed(rng, 128, datagen.SkewedConfig{Rows: 4000, Fanout: 2})
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []core.PlanMode{core.PlanWCOJ, core.PlanHybrid, core.PlanBinary} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q, err := core.NewQuery(nil, nil, tables)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := core.XJoin(q, core.Options{Plan: mode, Parallelism: -1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
