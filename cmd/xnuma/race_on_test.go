//go:build race

package main

// raceEnabled reports whether the race detector is compiled in; the
// table fixture test skips itself under race to keep CI wall-clock
// bounded (CI runs it in a plain step).
const raceEnabled = true
