//go:build !race

package service

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
