//go:build race

package treewidth

// raceEnabled gates the allocation count of a warm solve: under the race
// detector sync.Pool drops a quarter of the items it is given, so a warm
// solve often starts from a fresh scratch. That is a property of the
// instrumentation, not of the solver under test.
const raceEnabled = true
