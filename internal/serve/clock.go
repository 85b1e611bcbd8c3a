package serve

//lint:file-ignore determinism the wall clock lives behind the Clock seam; mining results never read it

import "time"

// Clock abstracts the wall clock so the engine itself never calls time.Now:
// tests inject a fake, and the lint analyzers keep stray wall-clock reads
// out of every other file in the package.
type Clock interface {
	Now() time.Time
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// SystemClock returns the real wall clock.
func SystemClock() Clock { return wallClock{} }
