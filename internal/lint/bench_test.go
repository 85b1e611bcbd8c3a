package lint

import (
	"testing"
)

// BenchmarkLint measures a full lint run over the repository, the way
// `make lint` executes it: one go list per module (the root module and
// the nested bench/ module), a source type-check of every module package
// they list (31 at the time of writing; the standard library comes from
// export data), then the whole analyzer suite.
func BenchmarkLint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pkgs, err := NewLoader().Load("../../...")
		if err != nil {
			b.Fatal(err)
		}
		Run(pkgs, Analyzers())
	}
}
