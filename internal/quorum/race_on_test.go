//go:build race

package quorum

// raceEnabled reports whether the race detector instruments this build;
// the allocation pin skips under it, since instrumentation allocates.
const raceEnabled = true
