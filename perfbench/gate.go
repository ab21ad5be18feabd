package main

import (
	"bytes"
	"fmt"
	"slices"
)

// gate collects correctness-gate mismatches. It runs outside every
// timed phase; any mismatch fails the run.
type gate struct{ problems []string }

func (g *gate) failf(format string, args ...any) {
	g.problems = append(g.problems, fmt.Sprintf(format, args...))
}

func (g *gate) ok() bool { return len(g.problems) == 0 }

// sameTuples reports whether two tuple sets are equal as multisets of
// byte images.
func sameTuples(a, b [][]byte) bool { return sameMultiset(a, b, bytes.Compare) }

// sameRows reports whether two row sets are equal as multisets.
func sameRows(a, b [][]int64) bool { return sameMultiset(a, b, slices.Compare[[]int64]) }

func sameMultiset[T any](a, b []T, cmp func(x, y T) int) bool {
	if len(a) != len(b) {
		return false
	}
	sa, sb := slices.Clone(a), slices.Clone(b)
	slices.SortFunc(sa, cmp)
	slices.SortFunc(sb, cmp)
	return slices.EqualFunc(sa, sb, func(x, y T) bool { return cmp(x, y) == 0 })
}
