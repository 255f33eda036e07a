//go:build !race

package srm

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
