//go:build race

package core

// raceEnabled reports a -race build, whose sync.Pool drops items at random
// and so turns pooled cursors into allocations.
const raceEnabled = true
