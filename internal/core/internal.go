package core

import (
	"errors"

	"repro/internal/cachehook"
	"repro/internal/wcoj"
)

// ErrInternal reports that a run was aborted by an engine defect — a panic
// in an executor goroutine or an index build — rather than by the query,
// the data, or the caller's context. The panic is recovered at the
// executor boundary (sibling workers are cancelled, pooled iterators
// released, no goroutine leaks), so the process and the shared catalog
// stay usable; the error wraps the recovered *wcoj.PanicError, whose
// captured stack identifies the defect:
//
//	errors.Is(err, core.ErrInternal) // "the engine, not the query, failed"
//	var pe *wcoj.PanicError
//	errors.As(err, &pe)              // pe.Value, pe.Stack
//
// Like cancellation, an internal error travels alongside the partial
// result and statistics gathered before the failure, with Stats.Internal
// set.
var ErrInternal = errors.New("core: internal execution error")

// ErrBudgetExceeded reports that a lazily built index was refused because
// its estimated footprint alone exceeds the shared catalog's byte budget.
// XJoin and XJoinStream handle it internally when the configuration can
// degrade (see Stats.Degraded); it surfaces to callers only when no
// cheaper execution shape exists.
var ErrBudgetExceeded = cachehook.ErrBudgetExceeded

// internalError wraps the recovered failure so errors.Is matches the
// package sentinel and errors.As still reaches the *wcoj.PanicError.
type internalError struct{ cause error }

func (e *internalError) Error() string   { return "core: internal execution error: " + e.cause.Error() }
func (e *internalError) Unwrap() []error { return []error{ErrInternal, e.cause} }

// Internal wraps a recovered executor failure into the package's internal
// error.
func Internal(cause error) error {
	if cause == nil {
		return ErrInternal
	}
	return &internalError{cause: cause}
}

// isPanic reports whether err carries a recovered executor panic.
func isPanic(err error) bool {
	var pe *wcoj.PanicError
	return errors.As(err, &pe)
}

// buildControl is the one control of every index build of a run under
// opts, from planning to the executors' Opens (run sets Built per span);
// Prepare and Explain plan under it too, without Admit. Check probes
// Options.Context, so a dead context abandons the build in flight, and
// the executors poll it as their backstop. Admit is the catalog budget admission, set only when
// the configuration has a degradation path — lazy A-D atoms over a cut
// A-D edge, whose rejected build falls back to the post-hoc shape (see
// degradeOptions). The post-hoc shape of a query without a cut A-D edge
// is the same atom set, so refusing it would only turn budget pressure
// into a second attempt or a hard failure.
func (q *Query) buildControl(opts Options) cachehook.BuildControl {
	var ctl cachehook.BuildControl
	if ctx := opts.Context; ctx != nil && ctx.Done() != nil {
		ctl.Check = func() bool { return ctx.Err() != nil }
	}
	if q.cat != nil && opts.AD == ADLazy && q.hasADEdge() {
		ctl.Admit = q.cat
	}
	return ctl
}

// degradeOptions decides the budget-pressure fallback: when a run failed
// because a lazily built index alone exceeds the catalog budget, and the
// configuration has a cheaper shape, return the degraded options — A-D
// filtering moved to the final validation (ADPostHoc) — plus the reason
// recorded in Stats.Degraded. The degraded configuration carries no Admit
// control, so the retry cannot fail the same way. A run retries iff nothing
// has been delivered: delivered is the number of answers the failed attempt
// already handed to the caller, which a rerun would hand over again.
func degradeOptions(opts Options, err error, delivered int) (Options, string, bool) {
	if delivered > 0 || err == nil || !errors.Is(err, ErrBudgetExceeded) || opts.AD != ADLazy {
		return opts, "", false
	}
	opts.AD = ADPostHoc
	return opts, err.Error(), true
}
