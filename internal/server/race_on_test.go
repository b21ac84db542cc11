//go:build race

package server

// raceEnabled reports that the race detector is instrumenting this build;
// allocation-budget tests skip because instrumentation itself allocates.
const raceEnabled = true
