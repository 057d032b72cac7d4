package main

// -compare: two result files of this suite, metric by metric against the
// end-to-end bounds.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// summary is one (workload, metric) cell of a result file: the median over
// the file's untraced runs of that workload and, with four runs or more,
// the distance between their quartiles as a share of the median.
type summary struct {
	value, spread float64
	ok            bool // every run correct and the metric present
}

func summarise(f *resultFile, workload, metric string) summary {
	var vals []float64
	for _, r := range f.Runs {
		if r.Workload != workload || r.Traced {
			continue
		}
		v, ok := r.Metrics[metric]
		if !ok || !r.Correct {
			return summary{}
		}
		vals = append(vals, v)
	}
	if len(vals) == 0 {
		return summary{}
	}
	sort.Float64s(vals)
	s := summary{value: median(vals), ok: true}
	if n := len(vals); n >= 4 && s.value != 0 {
		s.spread = (vals[(3*n)/4] - vals[n/4]) / s.value
	}
	return s
}

// verdict judges b against a for one metric: WORSE when b is worse than a
// by more than the bound, UNRESOLVED when a side is missing or incorrect or
// its run-to-run spread is wider than the bound, PASS otherwise. change is
// how much worse b is, as a share of a (negative: better).
func verdict(m metricDef, a, b summary) (change float64, v string) {
	if !a.ok || !b.ok || a.value == 0 {
		return 0, "UNRESOLVED"
	}
	change = (b.value - a.value) / a.value
	if m.Better == "higher" {
		change = -change
	}
	switch {
	case a.spread > m.Bound || b.spread > m.Bound:
		return change, "UNRESOLVED"
	case change > m.Bound:
		return change, "WORSE"
	}
	return change, "PASS"
}

func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	var files [2]resultFile
	for i, p := range []string{pathA, pathB} {
		data, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(data, &files[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", p, err)
			return 2
		}
	}
	a, b := &files[0], &files[1]
	fmt.Fprintf(stdout, "a: %s commit %s seed %d GOMAXPROCS %d\nb: %s commit %s seed %d GOMAXPROCS %d\n",
		pathA, a.Header.GitCommit, a.Header.Seed, a.Header.GOMAXPROCS, pathB, b.Header.GitCommit, b.Header.Seed, b.Header.GOMAXPROCS)
	fmt.Fprintf(stdout, "%-18s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "worse by", "bound", "verdict")
	code := 0
	for _, w := range workloads {
		for _, m := range endToEnd {
			sa, sb := summarise(a, w.name, m.Name), summarise(b, w.name, m.Name)
			change, v := verdict(m, sa, sb)
			if v == "WORSE" {
				code = 1
			}
			fmt.Fprintf(stdout, "%-18s %-18s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n", w.name, m.Name, sa.value, sb.value, 100*change, 100*m.Bound, v)
		}
	}
	return code
}
