//go:build race

package srm

// raceEnabled reports a -race build. The race runtime allocates on paths
// the allocation pins hold at zero, so those pins skip under it; the
// plain test run enforces them.
const raceEnabled = true
