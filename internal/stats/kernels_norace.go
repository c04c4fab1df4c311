//go:build !race

package stats

// raceEnabled reports a race-detector build; see useAVX2.
const raceEnabled = false
