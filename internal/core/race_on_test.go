//go:build race

package core

// raceEnabled reports whether the race detector is compiled in; wall-clock
// shares measured under it say nothing about the production build.
const raceEnabled = true
