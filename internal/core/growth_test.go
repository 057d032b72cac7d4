package core

import (
	"math"
	"math/big"
	"testing"

	"repro/internal/datagen"
)

// growthSlope is the least-squares slope of log2(ys) against log2(ns): the
// exponent e of a fit ys ≈ c·nᵉ.
func growthSlope(ns, ys []int) float64 {
	var sx, sy, sxx, sxy float64
	for i := range ns {
		x, y := math.Log2(float64(ns[i])), math.Log2(float64(max(ys[i], 1)))
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	k := float64(len(ns))
	return (k*sxy - sx*sy) / (k*sxx - sx*sx)
}

// TestWorkGrowsAsTheBoundSays checks the paper's headline claim as a growth
// rate, on deterministic counters only: over doublings of n, XJoin's
// intermediates grow no faster than N^ρ*, with ρ* the exponent
// ComputeBounds derives for the whole query, while the conventional plan's
// intermediates reach the exponent of its worst subquery — the twig's ρ*
// for the baseline (Example 3.4 / Figure 3, Example 3.3), the pairwise
// join's 2 for a binary plan over a triangle whose pairwise joins are
// quadratic (CyclicCoreTail).
func TestWorkGrowsAsTheBoundSays(t *testing.T) {
	const above = 0.1 // XJoin's slopes may exceed ρ* by this much
	twigQuery := func(gen func(int) (*datagen.Instance, error)) func(*testing.T, int) *Query {
		return func(t *testing.T, n int) *Query {
			inst, err := gen(n)
			if err != nil {
				t.Fatal(err)
			}
			return mustQuery(t, inst)
		}
	}
	baseline := func(q *Query) (*Result, error) { return Baseline(q, Options{}) }
	peak := func(s *Stats) int { return s.PeakIntermediate }
	twigRho := func(b *Bounds) *big.Rat { return b.TwigExponent }
	families := []struct {
		name  string
		query func(*testing.T, int) *Query
		rho   *big.Rat // the paper's ρ*, which ComputeBounds must derive
		// xjoinNs sweeps XJoin; otherNs sweeps the conventional plan, whose
		// counter must grow at least as fast as floor(ComputeBounds) - below.
		xjoinNs, otherNs []int
		other            func(*Query) (*Result, error)
		counter          func(*Stats) int
		floor            func(*Bounds) *big.Rat
		below            float64
	}{
		{
			name: "Example34", query: twigQuery(datagen.Example34), rho: big.NewRat(2, 1),
			// The baseline stays at n ≤ 8: its twig result holds n⁵
			// tuples, a million at n = 16.
			xjoinNs: []int{8, 16, 32, 64}, otherNs: []int{2, 4, 8},
			other: baseline, counter: peak, floor: twigRho, below: 0.25,
		},
		{
			name: "Example33", query: twigQuery(datagen.Example33), rho: big.NewRat(7, 2),
			xjoinNs: []int{8, 16, 32}, otherNs: []int{2, 4, 8},
			other: baseline, counter: peak, floor: twigRho, below: 0.25,
		},
		{
			name: "CyclicCoreTail", query: func(t *testing.T, n int) *Query { return cyclicCoreTailQuery(t, n, 2) },
			rho:     big.NewRat(5, 2),
			xjoinNs: []int{64, 128, 256}, otherNs: []int{64, 128, 256},
			other:   func(q *Query) (*Result, error) { return XJoin(q, Options{Plan: PlanBinary}) },
			counter: func(s *Stats) int { return s.BinaryIntermediate },
			floor:   func(*Bounds) *big.Rat { return big.NewRat(2, 1) },
			below:   0.2,
		},
	}
	for _, f := range families {
		t.Run(f.name, func(t *testing.T) {
			b, err := ComputeBounds(f.query(t, f.xjoinNs[0]))
			if err != nil {
				t.Fatal(err)
			}
			if b.Exponent.Cmp(f.rho) != 0 {
				t.Fatalf("ComputeBounds derives ρ* = %s, the paper says %s", b.Exponent.RatString(), f.rho.RatString())
			}
			rho, _ := b.Exponent.Float64()
			var totals, peaks []int
			for _, n := range f.xjoinNs {
				res, err := XJoin(f.query(t, n), Options{})
				if err != nil {
					t.Fatal(err)
				}
				totals = append(totals, res.Stats.TotalIntermediate)
				peaks = append(peaks, res.Stats.PeakIntermediate)
			}
			for _, c := range []struct {
				name string
				ys   []int
			}{{"TotalIntermediate", totals}, {"PeakIntermediate", peaks}} {
				s := growthSlope(f.xjoinNs, c.ys)
				t.Logf("XJoin %s over n = %v: %v, slope %.3f (ρ* = %s)", c.name, f.xjoinNs, c.ys, s, b.Exponent.RatString())
				if s > rho+above {
					t.Errorf("XJoin %s grows as n^%.3f, above ρ* = %s", c.name, s, b.Exponent.RatString())
				}
			}

			floor, _ := f.floor(b).Float64()
			var work []int
			for _, n := range f.otherNs {
				res, err := f.other(f.query(t, n))
				if err != nil {
					t.Fatal(err)
				}
				work = append(work, f.counter(&res.Stats))
			}
			s := growthSlope(f.otherNs, work)
			t.Logf("conventional plan over n = %v: %v, slope %.3f (floor %s)", f.otherNs, work, s, f.floor(b).RatString())
			if s < floor-f.below {
				t.Errorf("conventional plan's intermediates grow as n^%.3f, below n^%s", s, f.floor(b).RatString())
			}
		})
	}
}
