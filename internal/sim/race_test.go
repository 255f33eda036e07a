//go:build race

package sim

// raceEnabled reports a -race build. The race runtime drops pooled
// objects at random, so the allocation pin skips under it; the plain
// test run enforces it.
const raceEnabled = true
