package xmjoin

// Tracing-overhead benchmarks. Each workload runs twice, trace off vs
// trace on, showing both the disabled cost (which must stay at one
// pointer test per phase — the acceptance bound holds
// BenchmarkGenericJoinStream within 2% and the same allocs/op) and the
// enabled cost (span bookkeeping per phase, one counter-only child per
// level, never per-tuple work):
//
//   - BenchmarkTraceOffStream / BenchmarkTraceOnStream — the streaming
//     executor over the serving fixture, the GenericJoinStream-style
//     shape where per-tuple overhead would show first.
//   - BenchmarkTraceOffPreparedWarm / BenchmarkTraceOnPreparedWarm —
//     the warm serving path: one PreparedQuery, zero index work, so the
//     trace's fixed per-run cost is the entire difference.
//
// Run: go test -run NONE -bench 'TraceO' -cpu 1,4 .

import (
	"testing"
)

func benchStream(b *testing.B, db *Database, tr func() *Trace) {
	b.Helper()
	q, err := db.Query(benchPattern, "R", "S")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := q.ExecXJoinStream(func([]string) bool { return true }); err != nil {
		b.Fatal(err) // warm the catalog outside the timer
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.WithTrace(tr())
		stats, err := q.ExecXJoinStream(func([]string) bool { return true })
		if err != nil {
			b.Fatal(err)
		}
		if stats.Output == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkTraceOffStream(b *testing.B) {
	benchStream(b, benchServingDB(b), func() *Trace { return nil })
}

func BenchmarkTraceOnStream(b *testing.B) {
	benchStream(b, benchServingDB(b), func() *Trace { return NewTrace("bench") })
}

func benchPreparedWarm(b *testing.B, tr func() *Trace) {
	b.Helper()
	db := benchServingDB(b)
	p, err := db.Prepare(benchPattern, "R", "S")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := p.Execute(); err != nil {
		b.Fatal(err) // warm-up: build everything once
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := p.Execute(ExecOptions{Trace: tr()})
		if err != nil {
			b.Fatal(err)
		}
		if res.Len() == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkTraceOffPreparedWarm(b *testing.B) {
	benchPreparedWarm(b, func() *Trace { return nil })
}

func BenchmarkTraceOnPreparedWarm(b *testing.B) {
	benchPreparedWarm(b, func() *Trace { return NewTrace("bench") })
}
