// Package core is clean; its sibling file is excluded by a build
// constraint and would not type-check.
package core

// Limit is redeclared in the excluded file.
const Limit = 8
