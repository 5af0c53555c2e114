//go:build !race

package core

// raceEnabled reports whether the race detector is instrumenting this
// build. The allocation-ceiling tests skip under race: race mode's
// instrumentation (and sync.Pool's deliberate item dropping) makes the
// steady-state allocation count nondeterministic.
const raceEnabled = false
