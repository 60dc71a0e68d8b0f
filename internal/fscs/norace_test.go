//go:build !race

package fscs

// raceEnabled reports that the race detector is on.
const raceEnabled = false
