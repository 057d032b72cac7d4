//go:build !race

package xmjoin

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
