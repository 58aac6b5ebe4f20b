// Package maporderfix is the pdflint fixture for the maporder
// analyzer: ranging over a map into an ordered result without a sort.
package maporderfix

import (
	"fmt"
	"io"
	"sort"
)

// BadAppend feeds an ordered fault list from random map order.
func BadAppend(seen map[string]int) []string {
	var out []string
	for k := range seen {
		out = append(out, k) // want `append to out inside range over map seen`
	}
	return out
}

// BadString builds output text in map order.
func BadString(seen map[string]int) string {
	s := ""
	for k, v := range seen {
		s += fmt.Sprintf("%s=%d\n", k, v) // want `string build of s inside range over map seen`
	}
	return s
}

// BadEmit writes test patterns in map order.
func BadEmit(w io.Writer, seen map[string]int) {
	for k := range seen {
		fmt.Fprintln(w, k) // want `fmt.Fprintln emission inside range over map seen`
	}
}

// GoodSortedAfter collects then sorts before anyone can observe the
// order.
func GoodSortedAfter(seen map[string]int) []string {
	var out []string
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// GoodSortedKeys iterates a sorted key slice, not the map.
func GoodSortedKeys(seen map[string]int) []string {
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		out = append(out, fmt.Sprint(seen[k]))
	}
	return out
}

// GoodUnordered writes into order-insensitive state.
func GoodUnordered(seen map[string]int) int {
	total := 0
	for _, v := range seen {
		total += v
	}
	return total
}

// BadLiteralSortOutside ranges inside a literal and sorts outside it:
// the sort scope is the literal's own frame, so the append is still
// unordered when the literal returns.
func BadLiteralSortOutside(seen map[string]int) []string {
	var out []string
	collect := func() {
		for k := range seen {
			out = append(out, k) // want `append to out inside range over map seen`
		}
	}
	collect()
	sort.Strings(out)
	return out
}
