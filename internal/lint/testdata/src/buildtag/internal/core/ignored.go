//go:build ignore

package core

// Limit is already declared in core.go, and the string cannot be an int:
// a loader that ignores build constraints fails here.
const Limit int = "eight"
