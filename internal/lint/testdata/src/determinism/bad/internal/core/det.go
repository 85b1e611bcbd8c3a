// Package core is a determinism fixture: the three nondeterminism sources
// the analyzer bans from result-computing packages.
package core

import (
	"math/rand" // want: randomness import
	"time"
)

// Mine stamps its result with the wall clock and a random draw, and folds
// a map in iteration order.
func Mine(counts map[int]int) (int64, int) {
	stamp := time.Now().UnixNano() // want: wall clock
	total := rand.Intn(10)
	for _, c := range counts { // want: map iteration order
		total += c
	}
	return stamp + int64(time.Since(time.Time{})), total // want: wall clock
}
