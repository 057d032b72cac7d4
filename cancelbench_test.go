package xmjoin

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// starvedCtx is a context whose Done channel never fires and whose Err
// flips to context.Canceled on the second probe: the first probe — the
// cancel guard's pre-check — sees a live context, and every later probe
// (the executors' and index builds' periodic backstop polls) sees it
// cancelled. It models a cancellation the engine can only observe by
// polling, the exact scenario the ~1024-step backstop exists for, without
// depending on a second goroutine: on a single-CPU host a `go cancel()`
// helper is not scheduled until the join loop is preempted (~10-20ms) and
// timer sleeps have tens-of-milliseconds granularity, so either approach
// would measure the scheduler rather than the engine.
type starvedCtx struct {
	context.Context
	probes atomic.Int32
}

var neverDone = make(chan struct{})

func (c *starvedCtx) Done() <-chan struct{} { return neverDone }

func (c *starvedCtx) Err() error {
	if c.probes.Add(1) == 1 {
		return nil
	}
	return context.Canceled
}

// TestColdCancelAbandonsBuilds is BenchmarkColdCancelLatency's premise as
// a check: a cold run whose context reads as cancelled from the first
// backstop poll on abandons its first index build (the validators' tag
// runs, built under the run's context probe), so the run is cancelled,
// nothing stays resident and no second build is attempted.
func TestColdCancelAbandonsBuilds(t *testing.T) {
	db := deepChainDB(t, 2000)
	db.ResetCatalog()
	q, err := db.Query("//a//b")
	if err != nil {
		t.Fatal(err)
	}
	ctx := &starvedCtx{Context: context.Background()}
	if _, err := q.ExecXJoinCtx(ctx); !errors.Is(err, ErrCancelled) {
		t.Fatalf("want ErrCancelled, got %v", err)
	}
	if s := db.Catalog().Stats(); s.Entries != 0 || s.Misses > 1 {
		t.Fatalf("a cancelled cold run left %d entries (%d B) after %d misses, want 0 entries after at most 1 miss",
			s.Entries, s.ResidentBytes, s.Misses)
	}
}

// BenchmarkColdCancelLatency measures how fast a cold run lets go when
// its context dies while the lazy structural indexes are still building
// over a depth-2000 chain (the DeepChain adversary).
//
//   - finish is the pre-cancellable-build floor: pay the whole cold build,
//     then stop at the first validated answer (Limit 1) — what a
//     cancellation used to cost when builds ran to completion regardless.
//   - cancelled runs under a starvedCtx that reads as cancelled from the
//     first backstop poll onward. Every build of the run — planning's,
//     the validators', bindAtoms' and the executors' — polls that probe,
//     so the first structix build abandons itself at its first poll and
//     no later one starts.
//
// Each iteration resets the catalog so every run is genuinely cold.
// On a shared 2-CPU host finish reads 316-330 µs and cancelled 17-21 µs:
// a cancelled run that reads near or above finish has a build that does
// not poll the run's context probe.
func BenchmarkColdCancelLatency(b *testing.B) {
	db := deepChainDB(b, 2000)

	b.Run("finish", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db.ResetCatalog()
			q, err := db.Query("//a//b")
			if err != nil {
				b.Fatal(err)
			}
			if _, err := q.WithLimit(1).ExecXJoin(); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("cancelled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db.ResetCatalog()
			q, err := db.Query("//a//b")
			if err != nil {
				b.Fatal(err)
			}
			ctx := &starvedCtx{Context: context.Background()}
			if _, err := q.ExecXJoinCtx(ctx); !errors.Is(err, ErrCancelled) {
				b.Fatalf("want ErrCancelled, got %v", err)
			}
		}
	})
}
