//go:build !race

package seqwin

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
