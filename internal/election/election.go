// Package election chooses a backup coordinator among operational sites.
//
// The paper's central-site termination protocol begins: "When a coordinator
// crash is detected, a backup coordinator will be selected from the set of
// operational sites. Any distributed election mechanism can be used." This
// package provides a deterministic rule over a failure detector's view. It
// needs no messages under the paper's perfect failure-reporting assumption,
// since all operational sites compute the same answer.
package election

import "sort"

// Deterministic returns the lowest-numbered candidate that the given
// liveness view reports operational. Under reliable failure reporting every
// operational site computes the same backup, so no messages are needed. The
// second result is false when no candidate is alive.
func Deterministic(alive func(site int) bool, candidates []int) (int, bool) {
	sorted := append([]int(nil), candidates...)
	sort.Ints(sorted)
	for _, c := range sorted {
		if alive(c) {
			return c, true
		}
	}
	return 0, false
}
