package main

import (
	"fmt"
	"os"
	"sort"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// reportErrors prints the failed checks of a run to standard error.
func reportErrors(t tally) {
	for _, e := range t.errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
}
