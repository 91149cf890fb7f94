//go:build race

package main

// raceEnabled reports whether the test binary runs under the race
// detector, which slows the in-process replay several-fold; the smoke test
// then instruments lampsd as well, so the layer timings stay comparable.
const raceEnabled = true
