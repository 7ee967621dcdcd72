//go:build !race

package types

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
