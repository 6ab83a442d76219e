//go:build race

package main

// raceEnabled reports whether the race detector is compiled in; it
// instruments every allocation, so the allocation probe is skipped under it.
const raceEnabled = true
