//go:build race

package service

// raceEnabled reports a -race build, where sync.Pool drops a share of
// what it is given on purpose, so pooled paths allocate more.
const raceEnabled = true
