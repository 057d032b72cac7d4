package core

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/obs"
)

// TestWorkCountersRepeat pins the work of the three library queries under
// default options. The structural counters repeat exactly, so each must
// equal the value checked in beside its case; allocations per warm run may
// exceed theirs by allocSlack at most. A change that lowers a counter lowers
// its value here in the same change; raising one is a test change that needs
// a stated reason.
func TestWorkCountersRepeat(t *testing.T) {
	const allocSlack = 1.02
	twig := func(inst *datagen.Instance, err error) func(*testing.T) *Query {
		return func(t *testing.T) *Query {
			if err != nil {
				t.Fatal(err)
			}
			return mustQuery(t, inst)
		}
	}
	cases := []struct {
		name  string
		query func(*testing.T) *Query
		// output, peak, total and batches are Stats' Output,
		// PeakIntermediate, TotalIntermediate and LeafBatches.
		output, peak, total, batches int
		stages                       []int
		// levels are the trace's per-level counters, one line a level.
		levels []string
		allocs float64
	}{
		{
			name:   "Example34(2048)",
			query:  twig(datagen.Example34(2048)),
			output: 2048, peak: 2048, total: 14337, batches: 2048,
			stages: []int{1, 2048, 2048, 2048, 2048, 2048, 2048, 2048},
			levels: []string{
				"level 0: A stage=1 intersections=1 seeks=0 batches=0",
				"level 1: B stage=2048 intersections=1 seeks=4094 batches=0",
				"level 2: C stage=2048 intersections=2048 seeks=8188 batches=0",
				"level 3: D stage=2048 intersections=2048 seeks=4094 batches=0",
				"level 4: E stage=2048 intersections=2048 seeks=8188 batches=0",
				"level 5: F stage=2048 intersections=2048 seeks=8188 batches=0",
				"level 6: G stage=2048 intersections=2048 seeks=4094 batches=0",
				"level 7: H stage=2048 intersections=2048 seeks=4096 batches=2048",
			},
			allocs: 10280,
		},
		{
			name:   "Shop(40,60)",
			query:  twig(datagen.Shop(40, 60)),
			output: 2400, peak: 42680, total: 50875, batches: 2400,
			stages: []int{97, 97, 1067, 1067, 1067, 42680, 2400, 2400},
			levels: []string{
				"level 0: id stage=97 intersections=1 seeks=192 batches=0",
				"level 1: user stage=97 intersections=97 seeks=0 batches=0",
				"level 2: cat stage=1067 intersections=97 seeks=1940 batches=0",
				"level 3: region stage=1067 intersections=1067 seeks=0 batches=0",
				"level 4: catalog stage=1067 intersections=1067 seeks=0 batches=0",
				"level 5: shop stage=42680 intersections=1067 seeks=104566 batches=0",
				"level 6: item stage=2400 intersections=42680 seeks=371358 batches=0",
				"level 7: price stage=2400 intersections=2400 seeks=31287 batches=2400",
			},
			allocs: 132888,
		},
		{
			name:   "CyclicCoreTail(8192,4)",
			query:  func(t *testing.T) *Query { return cyclicCoreTailQuery(t, 8192, 4) },
			output: 24577, peak: 24577, total: 147463, batches: 24577,
			stages: []int{8193, 16385, 24577, 24577, 24577, 24577, 24577},
			levels: []string{
				"level 0: a stage=8193 intersections=1 seeks=8192 batches=0",
				"level 1: b stage=16385 intersections=8193 seeks=8192 batches=0",
				"level 2: c stage=24577 intersections=16385 seeks=24576 batches=0",
				"level 3: u1 stage=24577 intersections=24577 seeks=8192 batches=0",
				"level 4: u2 stage=24577 intersections=24577 seeks=8192 batches=0",
				"level 5: u3 stage=24577 intersections=24577 seeks=8192 batches=0",
				"level 6: u4 stage=24577 intersections=24577 seeks=0 batches=24577",
			},
			allocs: 24621,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			q := c.query(t)
			res, err := XJoin(q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			st := res.Stats
			tr := obs.NewTrace(c.name)
			if _, err := XJoin(q, Options{Trace: tr}); err != nil {
				t.Fatal(err)
			}
			levels := levelCounters(tr)
			for _, f := range []struct {
				name      string
				got, want int
			}{
				{"Output", st.Output, c.output},
				{"PeakIntermediate", st.PeakIntermediate, c.peak},
				{"TotalIntermediate", st.TotalIntermediate, c.total},
				{"LeafBatches", st.LeafBatches, c.batches},
			} {
				if f.got != f.want {
					t.Errorf("%s = %d, want %d", f.name, f.got, f.want)
				}
			}
			if !slices.Equal(st.StageSizes, c.stages) {
				t.Errorf("StageSizes = %v, want %v", st.StageSizes, c.stages)
			}
			if !slices.Equal(levels, c.levels) {
				t.Errorf("level counters = %q, want %q", levels, c.levels)
			}
			if raceEnabled {
				return // -race turns pooled cursors into allocations
			}
			allocs := testing.AllocsPerRun(2, func() {
				if _, err := XJoin(q, Options{}); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("allocs/op %.0f (ceiling %.0f)", allocs, c.allocs)
			if allocs > c.allocs*allocSlack {
				t.Errorf("allocs/op = %.0f, above the ceiling %.0f by more than %.0f%%", allocs, c.allocs, (allocSlack-1)*100)
			}
		})
	}
}

// levelCounters returns the trace's per-level join counters, one
// "level i: attr stage=… intersections=… seeks=… batches=…" line a level.
func levelCounters(tr *obs.Trace) []string {
	var out []string
	for _, line := range strings.Split(tr.Render(), "\n") {
		if line = strings.TrimSpace(line); strings.HasPrefix(line, "level ") {
			out = append(out, strings.Replace(line, "  [-]", "", 1))
		}
	}
	return out
}
