package wcoj

import (
	"fmt"
	"runtime/debug"

	"repro/internal/cachehook"
)

// PanicError wraps a panic recovered inside an executor-owned goroutine —
// a morsel worker, the driver, or the serial stream loop — so the failure
// surfaces as an ordinary error instead of tearing the process down. The
// core layer maps it onto its ErrInternal taxonomy; the original panic
// value and the goroutine stack at recovery time stay available for
// diagnostics.
type PanicError struct {
	// Value is the value the goroutine panicked with.
	Value any
	// Stack is the panicking goroutine's stack at the recover site.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("wcoj: executor panic: %v", e.Value)
}

// newPanicError captures v (a recover() result) with the current stack.
func newPanicError(v any) *PanicError {
	return &PanicError{Value: v, Stack: debug.Stack()}
}

// BuildController is implemented by bindings that carry run-scoped build
// controls. Atoms whose Open may trigger a long lazy index build
// (TableAtom's column runs; structix tag runs, P-C pair tables and
// projections) read it through BuildControlOf and thread the returned
// control into the build: the cancellation probe bounds a cold run's
// cancellation latency by one check interval instead of the whole build,
// and the admission probe lets the cache manager refuse a build that
// alone exceeds its budget (cachehook.ErrBudgetExceeded) so core can
// degrade for the run. Atoms must treat a missing implementation — or a
// zero control — as "build unconditionally", the pre-control behaviour.
type BuildController interface {
	BuildControl() cachehook.BuildControl
}

// BuildControlOf extracts the build control riding on b, if any; a plain
// binding builds unconditionally (the zero control).
func BuildControlOf(b Binding) cachehook.BuildControl {
	if bc, ok := b.(BuildController); ok {
		return bc.BuildControl()
	}
	return cachehook.BuildControl{}
}
