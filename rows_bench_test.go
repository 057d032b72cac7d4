package xmjoin

import (
	"context"
	"errors"
	"testing"
)

// What context-first execution costs and buys.
//
//   - BenchmarkDeepChainFullEnum vs BenchmarkCancelLatencyDeepChain — the
//     full deep-chain enumeration against a run cancelled at its first
//     answer: the cancelled op's time is the engine's cancellation
//     latency (bounded by one morsel's work), orders of magnitude under
//     the full run it abandons.
//   - BenchmarkCallbackStream vs BenchmarkRowsCursor — the same streamed
//     enumeration consumed through the callback API and through the
//     pull-based Rows cursor; the difference is the cursor's per-row
//     price. With the chunked channel the steady-state handoff is
//     amortized over up to 64 rows, so the gap should be a thin margin,
//     not the multiple it was when every row crossed alone.
//   - BenchmarkRowsNextBatch — the same cursor drained a chunk at a time,
//     the cheapest pull-based consumption.
//
// Run with -cpu 1,4: the parallel executor behind WithParallelism is not
// used here, but cursor handoff costs depend on available cores.

const benchChainDepth = 300 // ~22k //a//b answers

func benchPrepared(b *testing.B) *PreparedQuery {
	b.Helper()
	db := deepChainDB(b, benchChainDepth)
	p, err := db.Prepare("//a//b")
	if err != nil {
		b.Fatal(err)
	}
	// Warm the catalog so every measured run is pure join work.
	if _, err := p.Execute(ExecOptions{Limit: 1}); err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkDeepChainFullEnum is the uncancelled reference: the work a
// client abandoning the query would otherwise keep paying for.
func BenchmarkDeepChainFullEnum(b *testing.B) {
	p := benchPrepared(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if _, err := p.ExecuteStream(func([]string) bool {
			n++
			return true
		}); err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkCancelLatencyDeepChain cancels the same enumeration at its
// first answer; the op time is first-answer latency plus cancel-to-return
// latency — the figure that must stay near-constant as documents grow.
func BenchmarkCancelLatencyDeepChain(b *testing.B) {
	p := benchPrepared(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		_, err := p.ExecuteStreamCtx(ctx, func([]string) bool {
			cancel()
			return true
		})
		cancel()
		if err != nil && !errors.Is(err, ErrCancelled) {
			b.Fatal(err)
		}
	}
}

// BenchmarkCallbackStream consumes every answer through the push API.
func BenchmarkCallbackStream(b *testing.B) {
	p := benchPrepared(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if _, err := p.ExecuteStream(func(row []string) bool {
			n += len(row)
			return true
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRowsCursor consumes every answer through the pull cursor: the
// managed goroutine, the per-row copy, and the channel handoff are the
// overhead this measures against BenchmarkCallbackStream.
func BenchmarkRowsCursor(b *testing.B) {
	p := benchPrepared(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := p.Rows(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for rows.Next() {
			n += len(rows.Row())
		}
		if err := rows.Close(); err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkRowsNextBatch drains the same cursor through NextBatch: one
// channel receive per chunk instead of per row, no per-row cursor state.
func BenchmarkRowsNextBatch(b *testing.B) {
	p := benchPrepared(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := p.Rows(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			batch := rows.NextBatch()
			if batch == nil {
				break
			}
			for _, row := range batch {
				n += len(row)
			}
		}
		if err := rows.Close(); err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.Fatal("no rows")
		}
	}
}
