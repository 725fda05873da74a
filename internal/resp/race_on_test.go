//go:build race

package resp

// raceEnabled: the race detector's instrumentation allocates, so the
// allocation guards do not hold under it.
const raceEnabled = true
