package core

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/wcoj"
)

// traceExecStats attaches a completed run's summary attributes and one
// counter-only child span per attribute level (stage size,
// intersections, seeks, leaf batches) to the execute span.
func traceExecStats(exec *obs.Span, gj *wcoj.GenericJoinStats, st *Stats) {
	if exec == nil {
		return
	}
	exec.SetInt("output", int64(st.Output))
	exec.SetInt("validation_removed", int64(st.ValidationRemoved))
	if st.MorselSplits > 0 || st.MorselSteals > 0 {
		exec.SetInt("splits", int64(st.MorselSplits))
		exec.SetInt("steals", int64(st.MorselSteals))
	}
	for i, a := range gj.Order {
		lvl := exec.Counters(fmt.Sprintf("level %d: %s", i, a))
		if i < len(gj.StageSizes) {
			lvl.SetInt("stage", int64(gj.StageSizes[i]))
		}
		if i < len(gj.LevelIntersections) {
			lvl.SetInt("intersections", int64(gj.LevelIntersections[i]))
		}
		if i < len(gj.LevelSeeks) {
			lvl.SetInt("seeks", int64(gj.LevelSeeks[i]))
		}
		if i < len(gj.LevelBatches) {
			lvl.SetInt("batches", int64(gj.LevelBatches[i]))
		}
	}
}
