//go:build race

package engine

// raceEnabled reports a race-detector build, under which sync.Pool drops
// items at random and allocation counts through it are not exact.
const raceEnabled = true
