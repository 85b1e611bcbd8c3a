package lint

import (
	"testing"
)

// BenchmarkLint measures a full lint run over the repository, the way
// `make lint` executes it: per module (the root module and the nested
// bench/ module) one go list of the packages and one of the standard
// library's export data, a source type-check of every module package
// listed, then the whole analyzer suite.
func BenchmarkLint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pkgs, err := NewLoader().Load("../../...")
		if err != nil {
			b.Fatal(err)
		}
		Run(pkgs, Analyzers())
	}
}
