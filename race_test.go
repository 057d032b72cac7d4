//go:build race

package xmjoin

// raceEnabled reports a -race build, whose sync.Pool drops items at random
// and so turns pooled cursors into allocations.
const raceEnabled = true
