// Package bodiless declares a function without a body and no assembly to
// supply one: go/types accepts it, the compiler rejects it ("missing
// function body"). bbslint must lint it clean, because the loader
// type-checks module packages from source and never compiles them.
package bodiless

import "strings"

func f() int

// Upper imports the standard library, whose export data is still read.
func Upper(s string) string { return strings.ToUpper(s) + string(rune('0'+f())) }
