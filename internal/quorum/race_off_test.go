//go:build !race

package quorum

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
