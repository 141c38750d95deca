// Negative hotpath fixtures: the same operations are fine outside
// annotated functions, and an annotated function using package-level
// helpers and caller-owned scratch is clean.
package fixture

import (
	"fmt"
	"slices"
	"time"
)

// Unannotated: fmt, clocks, maps and closures are all allowed.
func coldPath(n int) string {
	m := make(map[int]int, n)
	slices.SortFunc([]int{2, 1}, func(a, b int) int { return a - b })
	return fmt.Sprintf("%d %d %d", len(m), time.Now().Unix(), n)
}

// cmpInt is hoisted to package level, the internal/cert byID
// shape, so the annotated sort allocates nothing.
func cmpInt(a, b int) int { return a - b }

// The post-fix shape of a hot verifier: slice scans instead of sets,
// package-level comparators, scratch passed in by the caller.
//
//certlint:hotpath
func hotClean(ids, scratch []int) bool {
	for i, id := range ids {
		for _, prev := range ids[:i] {
			if prev == id {
				return false
			}
		}
	}
	scratch = append(scratch[:0], ids...)
	slices.SortFunc(scratch, cmpInt)
	return true
}
