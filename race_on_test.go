//go:build race

package abase

// raceEnabled: the race detector's instrumentation allocates, so the
// allocation budget does not hold under it.
const raceEnabled = true
