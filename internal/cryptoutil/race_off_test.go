//go:build !race

package cryptoutil

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
