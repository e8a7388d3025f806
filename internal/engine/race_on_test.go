//go:build race

package engine

// raceEnabled reports a -race build, where sync.Pool drops cached leases at
// random, so allocation counts are not deterministic.
const raceEnabled = true
