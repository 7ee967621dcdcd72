//go:build race

package transport

// raceEnabled reports whether the race detector instruments this build;
// the allocation pins skip under it, since instrumentation allocates.
const raceEnabled = true
