//go:build !race

package treewidth

// raceEnabled is false in ordinary test builds; see race_test.go.
const raceEnabled = false
