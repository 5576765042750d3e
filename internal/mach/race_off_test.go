//go:build !race

package mach_test

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = false
