package main

// Spans recorded by the benchmark around its calls into each layer's
// exported functions. A nil *tracer records nothing, so traced and untraced
// runs share one code path.

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call. Spans of one op share Op; Parent is the id of the
// span that caused it (0 for an op's roots). A child is either physically
// nested in its parent's interval (the benchmark's own call structure) or a
// substitution: the parent's inputs re-run through the inner layer's entry
// point right afterwards, standing in for the part of the opaque parent call
// that layer accounts for.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

type opName struct {
	op   int
	name string
}

type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	last  map[opName]int // latest span id per (op, name), for substitutions to attach to
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), last: make(map[opName]int)}
}

// add records a finished span and returns its id.
func (t *tracer) add(op, parent int, name string, start time.Time, d time.Duration) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	s0 := start.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartNS: s0, EndNS: s0 + d.Nanoseconds()})
	t.last[opName{op, name}] = id
	return id
}

// begin opens a span whose children are recorded before it ends.
func (t *tracer) begin(op, parent int, name string) int {
	return t.add(op, parent, name, time.Now(), 0)
}

// end closes a span opened with begin.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// do times fn as a span. With a nil tracer it only runs fn.
func (t *tracer) do(op, parent int, name string, fn func() error) (int, error) {
	if t == nil {
		return 0, fn()
	}
	start := time.Now()
	err := fn()
	return t.add(op, parent, name, start, time.Since(start)), err
}

// find returns the id of op's latest span called name, or 0.
func (t *tracer) find(op int, name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.last[opName{op, name}]
}

// selfTimes returns each span's self time in ns by span id: its duration
// minus the time its children cover. Children's intervals are merged before
// they are summed, so children that ran concurrently count once; the result
// is clamped at zero, so substituted children that ran slower than the
// parent call they stand in for cannot make it negative.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		iv := children[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered, end int64
		for i, c := range iv {
			if i == 0 || c[0] > end {
				covered += c[1] - c[0]
				end = c[1]
			} else if c[1] > end {
				covered += c[1] - end
				end = c[1]
			}
		}
		self[s.ID] = max(s.dur()-covered, 0)
	}
	return self
}

// medianBy groups values by span name and returns each group's median in ns.
func medianBy(spans []span, value func(span) int64) map[string]float64 {
	byName := make(map[string][]float64)
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], float64(value(s)))
	}
	out := make(map[string]float64, len(byName))
	for name, v := range byName {
		sort.Float64s(v)
		out[name] = median(v)
	}
	return out
}

// opSpans returns the spans of ops lo ≤ op < hi.
func (t *tracer) opSpans(lo, hi int) []span {
	var out []span
	for _, s := range t.spans {
		if lo <= s.Op && s.Op < hi {
			out = append(out, s)
		}
	}
	return out
}

// durations is the median duration in ns per span name.
func durations(spans []span) map[string]float64 {
	return medianBy(spans, span.dur)
}

// selfDurations is the median self time in ns per span name.
func selfDurations(spans []span) map[string]float64 {
	self := selfTimes(spans)
	return medianBy(spans, func(s span) int64 { return self[s.ID] })
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
