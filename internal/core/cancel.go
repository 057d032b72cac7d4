package core

import (
	"context"
	"errors"
	"sync/atomic"

	"repro/internal/cachehook"
	"repro/internal/wcoj"
)

// ErrCancelled reports that a run was abandoned because its context was
// cancelled or its deadline expired. Errors returned by the executors for
// a cancelled run match both this sentinel and the context's own error,
// so callers can branch either way:
//
//	errors.Is(err, core.ErrCancelled)         // "the run did not finish"
//	errors.Is(err, context.DeadlineExceeded)  // "...because it timed out"
//
// A cancellation error travels alongside partial results: XJoin returns
// the validated tuples found so far and XJoinStream the statistics of the
// completed portion, both with Stats.Cancelled set.
var ErrCancelled = errors.New("core: query cancelled")

// cancelledError wraps the context's cause so errors.Is matches both the
// package sentinel and context.Canceled / context.DeadlineExceeded.
type cancelledError struct{ cause error }

func (e *cancelledError) Error() string   { return "core: query cancelled: " + e.cause.Error() }
func (e *cancelledError) Unwrap() []error { return []error{ErrCancelled, e.cause} }

// Cancelled wraps a context error into the package's cancellation error.
func Cancelled(cause error) error {
	if cause == nil {
		cause = context.Canceled
	}
	return &cancelledError{cause: cause}
}

// cancelGuard bridges a context onto the executors' atomic stop flag: one
// watcher goroutine flips the flag when the context ends, and stop()
// retires the watcher when the run finishes first. A nil guard is the
// fast path for runs without a cancellable context — every method is
// nil-safe and the executors then see a nil flag, paying nothing.
type cancelGuard struct {
	ctx  context.Context
	flag atomic.Bool
	done chan struct{}
}

// newCancelGuard returns the guard for ctx, nil when ctx can never be
// cancelled (nil or no Done channel — context.Background and friends),
// or an error when ctx is already over, so callers fail before doing any
// join work.
func newCancelGuard(ctx context.Context) (*cancelGuard, error) {
	if ctx == nil || ctx.Done() == nil {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, Cancelled(err)
	}
	g := &cancelGuard{ctx: ctx, done: make(chan struct{})}
	go func() {
		select {
		case <-ctx.Done():
			g.flag.Store(true)
		case <-g.done:
		}
	}()
	return g, nil
}

// streamOpts is the one executor option set of a run: the flag the
// executors poll and the run's build control, whose Check is their
// periodic direct context probe — the backstop that bounds cancellation
// latency even when the watcher goroutine is starved of CPU. A nil guard
// sets no flag.
func (g *cancelGuard) streamOpts(ctl cachehook.BuildControl) wcoj.StreamOpts {
	if g == nil {
		return wcoj.StreamOpts{Build: ctl}
	}
	return wcoj.StreamOpts{Cancel: &g.flag, Build: ctl}
}

// stop retires the watcher goroutine; defer it right after a successful
// newCancelGuard.
func (g *cancelGuard) stop() {
	if g != nil {
		close(g.done)
	}
}

// err reports the cancellation error if the context ended, else nil. A
// run that completes in the same instant its context expires may still
// report cancellation — indistinguishable from stopping one tuple
// earlier, and the safe direction for callers that retry.
func (g *cancelGuard) err() error {
	if g == nil {
		return nil
	}
	if e := g.ctx.Err(); e != nil {
		return Cancelled(e)
	}
	return nil
}

// buildCancelled maps a build abandoned on an ended context to the
// cancellation it is; any other error passes through.
func buildCancelled(ctx context.Context, err error) error {
	if ctx != nil && errors.Is(err, cachehook.ErrBuildCancelled) && ctx.Err() != nil {
		return Cancelled(ctx.Err())
	}
	return err
}
