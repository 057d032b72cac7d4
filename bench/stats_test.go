package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64 // 0: refused
	}{
		{199, 95, 0}, {200, 95, 190}, {250, 95, 238},
		{19, 50, 0}, {20, 50, 10}, {21, 50, 11},
		{999, 99, 0}, {1000, 99, 990},
	} {
		got, err := percentile(seq(c.n), c.p)
		if (err != nil) != (c.want == 0) || got != c.want {
			t.Errorf("p%g of %d samples = %v, %v; want %v", c.p, c.n, got, err, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{nil, 0}, {seq(1), 1}, {seq(4), 2.5}, {seq(5), 3}} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", StartNS: 0, EndNS: 100},
		// Physically nested children, the second and third overlapping.
		{ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 30},
		{ID: 3, Parent: 1, Name: "b", StartNS: 40, EndNS: 70},
		{ID: 4, Parent: 1, Name: "c", StartNS: 60, EndNS: 80},
		// A grandchild counts against its parent only.
		{ID: 5, Parent: 3, Name: "d", StartNS: 45, EndNS: 50},
		// A child contained in a sibling adds nothing.
		{ID: 6, Parent: 1, Name: "e", StartNS: 12, EndNS: 20},
		// Substituted children run after the call they stand in for.
		{ID: 7, Name: "call", StartNS: 200, EndNS: 260},
		{ID: 8, Parent: 7, Name: "inner", StartNS: 300, EndNS: 340},
		{ID: 9, Parent: 8, Name: "leaf1", StartNS: 400, EndNS: 410},
		{ID: 10, Parent: 8, Name: "leaf2", StartNS: 410, EndNS: 425},
		// A substitute slower than its parent clamps the parent at zero.
		{ID: 11, Name: "fast", StartNS: 500, EndNS: 510},
		{ID: 12, Parent: 11, Name: "slow", StartNS: 520, EndNS: 545},
	}
	want := map[int]int64{1: 40, 2: 20, 3: 25, 4: 20, 5: 5, 6: 8, 7: 20, 8: 15, 9: 10, 10: 15, 11: 0, 12: 25}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
	// Without clamping, a chain's self times add up to its root's duration.
	if sum := got[7] + got[8] + got[9] + got[10]; sum != spans[6].dur() {
		t.Errorf("chain self times sum to %d, root lasts %d", sum, spans[6].dur())
	}
}

func TestTracerNilAndNesting(t *testing.T) {
	var off *tracer
	if id, err := off.do(1, 0, "x", func() error { return nil }); id != 0 || err != nil {
		t.Errorf("nil tracer do = %d, %v", id, err)
	}
	off.end(off.begin(1, 0, "x"))

	tr := newTracer()
	root := tr.begin(7, 0, "op")
	child, _ := tr.do(7, root, "call", func() error { return nil })
	tr.end(root)
	if tr.find(7, "call") != child || tr.find(7, "op") != root || tr.find(8, "op") != 0 {
		t.Errorf("find: call %d op %d", tr.find(7, "call"), tr.find(7, "op"))
	}
	r, c := tr.spans[root-1], tr.spans[child-1]
	if c.Parent != root || c.Op != 7 || c.StartNS < r.StartNS || c.EndNS > r.EndNS {
		t.Errorf("child %+v not nested in root %+v", c, r)
	}
}

func TestLayerValues(t *testing.T) {
	got := layerValues(map[string]float64{"wcoj.seeks": 12, "core.xjoin_ms": 9}, map[string]float64{"core.xjoin": 5e6, "core.stream": 2e6, "twig.parse": 3e3})
	for name, want := range map[string]float64{"wcoj.seeks": 12, "core.xjoin_ms": 9, "core.stream_ms": 2, "twig.parse_us": 3, "server.exec_ms": 0} {
		if got[name] != want {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
	if len(got) != len(perLayer) {
		t.Errorf("%d values for %d per-layer metrics", len(got), len(perLayer))
	}
}

func TestVerdict(t *testing.T) {
	lower, higher := metricDef{Better: "lower", Bound: 0.10}, metricDef{Better: "higher", Bound: 0.10}
	ok := func(v, spread float64) summary { return summary{value: v, spread: spread, ok: true} }
	for _, c := range []struct {
		m      metricDef
		a, b   summary
		change float64
		want   string
	}{
		{lower, ok(100, 0), ok(109, 0), 0.09, "PASS"},
		{lower, ok(100, 0), ok(111, 0), 0.11, "WORSE"},
		{lower, ok(100, 0), ok(50, 0), -0.5, "PASS"},
		{higher, ok(100, 0), ok(89, 0), 0.11, "WORSE"},
		{higher, ok(100, 0), ok(120, 0), -0.2, "PASS"},
		{lower, ok(100, 0.2), ok(150, 0), 0.5, "UNRESOLVED"},
		{lower, summary{}, ok(1, 0), 0, "UNRESOLVED"},
	} {
		change, got := verdict(c.m, c.a, c.b)
		if got != c.want || math.Abs(change-c.change) > 1e-9 {
			t.Errorf("verdict(%v, %v, %v) = %v, %s; want %v, %s", c.m, c.a, c.b, change, got, c.change, c.want)
		}
	}
}
