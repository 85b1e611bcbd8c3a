// Package core is the unknown-analyzer fixture: a suppression naming no
// analyzer of the suite is itself reported, and it suppresses nothing.
package core

import "bbsmine/internal/bitvec"

// Misspelt suppresses under a name no analyzer has.
func Misspelt(n int) *bitvec.Vector {
	//lint:ignore pooledvecs the analyzer's name is misspelt
	return bitvec.New(n) // want: still flagged
}
