package lint

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// The fixture packages, loaded once: one go list over testdata/src/...
var fixtures struct {
	once sync.Once
	pkgs map[string]*Package
	err  error
}

// loadFixture returns one type-checked fixture package under testdata/src.
func loadFixture(t *testing.T, rel string) *Package {
	t.Helper()
	fixtures.once.Do(func() {
		pkgs, err := NewLoader().Load("./testdata/src/...")
		fixtures.pkgs, fixtures.err = map[string]*Package{}, err
		for _, pkg := range pkgs {
			fixtures.pkgs[pkg.Path] = pkg
		}
	})
	if fixtures.err != nil {
		t.Fatalf("loading the fixtures: %v", fixtures.err)
	}
	pkg := fixtures.pkgs["bbsmine/internal/lint/testdata/src/"+rel]
	if pkg == nil {
		t.Fatalf("no fixture package %s", rel)
	}
	return pkg
}

// TestAnalyzersOnFixtures runs the whole suite over each fixture package
// and compares the surviving findings, as "line analyzer" pairs, against
// the fixture's expectations. Every analyzer has at least one positive and
// one negative fixture; the suppression fixtures pin the directive
// machinery; the allow fixture pins the determinism allowlist.
func TestAnalyzersOnFixtures(t *testing.T) {
	tests := []struct {
		fixture string
		want    []string
	}{
		{"atomicfield/bad/internal/iostat", []string{
			"10 atomicfield", // plain int64 field in a Stats struct
			"17 atomicfield", // atomic field read without Load
		}},
		{"atomicfield/good/internal/iostat", nil},
		{"atomicfield/good/internal/obs", nil}, // atomic arrays + mutex field are fine
		{"pooledvec/bad/internal/core", []string{
			"9 pooledvec",  // raw bitvec.New
			"14 pooledvec", // Slice.Materialize per candidate
			"21 pooledvec", // Slice.Positions per call
		}},
		{"pooledvec/good/internal/core", nil},
		{"lockdiscipline/bad/cache", []string{
			"17 lockdiscipline", // map read with no lock anywhere
			"23 lockdiscipline", // field write before the Lock call
		}},
		{"lockdiscipline/good/cache", nil},
		{"determinism/bad/internal/core", []string{
			"6 determinism",  // math/rand import
			"13 determinism", // time.Now
			"15 determinism", // range over a map
			"18 determinism", // time.Since
		}},
		{"determinism/good/internal/core", nil},
		{"determinism/allow/internal/exp", nil}, // time.Now allowlisted in exp
		{"determinism/loadgenbad/cmd/bbsload", []string{
			"11 determinism", // rand.Seed
			"12 determinism", // rand.Intn draws from the global source
			"13 determinism", // time-seeded rand.NewSource (reported once, not per ctor)
		}},
		{"determinism/loadgengood/cmd/bbsload", nil}, // flag-seeded source + clock pacing
		{"errwrap/bad/internal/txdb", []string{
			"14 errwrap", // %v on an error
			"16 errwrap", // deferred silent discard
			"22 errwrap", // bare statement discard
		}},
		{"errwrap/good/internal/txdb", nil},
		{"errwrap/unscoped/other", nil}, // discard rule is scoped to txdb/sigfile/serve
		{"errwrap/serve/internal/serve", []string{
			"10 errwrap", // deferred silent discard in the serving layer
			"11 errwrap", // bare statement discard in the serving layer
		}},
		{"errwrap/shard/internal/shard", []string{
			"10 errwrap", // deferred silent discard in the sharded layout
			"11 errwrap", // bare statement discard in the sharded layout
		}},
		{"errwrap/pager/internal/pager", []string{
			"11 errwrap", // deferred silent discard on cold-file I/O
			"12 errwrap", // bare statement discard on cold-file I/O
		}},
		{"snapshotsafety/bad/internal/serve", []string{
			"20 snapshotsafety", // s.epoch++ after snap.Load()
			"28 snapshotsafety", // field store after snap.Store()
			"37 snapshotsafety", // element of a loaded-snapshot vector
		}},
		{"snapshotsafety/good/internal/serve", nil}, // build-then-Store, vector building, reads
		{"snapshotsafety/badmethod/internal/sigfile", []string{
			"24 snapshotsafety", // Insert on a Snapshot() result
		}},
		{"snapshotsafety/goodmethod/internal/sigfile", nil}, // mutating the master after Snapshot
		{"snapshotsafety/xpkg/internal/sigfile", nil},       // the fact-exporting package itself is clean
		{"snapshotsafety/xpkg/internal/serve", []string{
			"11 snapshotsafety", // cross-package mutator on a cross-package publisher, via facts
		}},
		{"hotpathalloc/bad/internal/core", []string{
			"9 hotpathalloc",  // make
			"13 hotpathalloc", // new
			"22 hotpathalloc", // append growth into a fresh array
			"23 hotpathalloc", // capturing closure
		}},
		{"hotpathalloc/good/internal/core", nil}, // self-appends and an unannotated allocator
		{"lockdiscipline/atomic/cache", []string{
			"31 lockdiscipline", // the guarded map, unlocked; the atomic fields are exempt
		}},
		{"suppress/internal/core", nil}, // both violations suppressed with reasons
		{"suppress/fileignore/internal/core", nil},
		{"malformed/internal/core", []string{
			"9 bbslint",    // reasonless directive is itself reported
			"10 pooledvec", // and does not suppress
		}},
		{"unknown/internal/core", []string{
			"9 bbslint",    // a directive naming no analyzer is itself reported
			"10 pooledvec", // and does not suppress
		}},
	}
	for _, tt := range tests {
		t.Run(tt.fixture, func(t *testing.T) {
			pkg := loadFixture(t, tt.fixture)
			var got []string
			for _, f := range Run([]*Package{pkg}, Analyzers()) {
				got = append(got, fmt.Sprintf("%d %s", f.Pos.Line, f.Analyzer))
			}
			if !reflect.DeepEqual(got, tt.want) {
				t.Errorf("findings = %v, want %v", got, tt.want)
			}
		})
	}
}

// TestFindingString pins the canonical "file:line: message [analyzer]"
// rendering the Makefile and editors rely on.
func TestFindingString(t *testing.T) {
	pkg := loadFixture(t, "pooledvec/bad/internal/core")
	findings := Run([]*Package{pkg}, []*Analyzer{PooledVec})
	if len(findings) != 3 {
		t.Fatalf("got %d findings, want 3", len(findings))
	}
	s := findings[0].String()
	if !strings.Contains(s, "alloc.go:9: ") || !strings.HasSuffix(s, "[pooledvec]") {
		t.Errorf("rendering %q, want file:line: message [analyzer]", s)
	}
}

// TestAnalyzerScopes pins each analyzer's Applies predicate against the
// real package paths it must (and must not) cover.
func TestAnalyzerScopes(t *testing.T) {
	tests := []struct {
		analyzer *Analyzer
		path     string
		want     bool
	}{
		{AtomicField, "bbsmine/internal/iostat", true},
		{AtomicField, "bbsmine/internal/obs", true},
		{AtomicField, "bbsmine/internal/core", false},
		{Determinism, "bbsmine/internal/serve", true},
		{Determinism, "bbsmine/cmd/bbsload", true}, // opts back in: plans must replay from -seed
		{Determinism, "bbsmine/cmd/bbsd", false},
		{Determinism, "bbsmine/internal/shard", true}, // fan-out merge order must be deterministic
		{PooledVec, "bbsmine/internal/core", true},
		{PooledVec, "bbsmine/internal/bitvec", false}, // the pool itself may call New
		{Determinism, "bbsmine/internal/core", true},
		{Determinism, "bbsmine/internal/mining", true},
		{Determinism, "bbsmine/internal/lint", true}, // the linter eats its own dog food
		{Determinism, "bbsmine/internal/exp", false},
		{Determinism, "bbsmine/internal/obs", false}, // phase timers read the clock by design
		{Determinism, "bbsmine/internal/weblog", false},
		{Determinism, "bbsmine/internal/quest", false},
		{Determinism, "bbsmine/cmd/bbsbench", false},
		{Determinism, "bbsmine/examples/retail", false},
		{SnapshotSafety, "bbsmine/internal/serve", true},
		{SnapshotSafety, "bbsmine/internal/shard", true},
		{SnapshotSafety, "bbsmine/internal/sigfile", true}, // the master/snapshot split lives here
		{SnapshotSafety, "bbsmine/internal/core", true},
		{SnapshotSafety, "bbsmine/internal/pager", true}, // cold frames serve snapshot reads
		{SnapshotSafety, "bbsmine/internal/obs", false},
		{SnapshotSafety, "bbsmine/internal/bitvec", false},
		{HotPathAlloc, "bbsmine/internal/bitvec", true}, // directive-driven: applies everywhere
		{HotPathAlloc, "bbsmine/cmd/bbsbench", true},
	}
	for _, tt := range tests {
		applies := tt.analyzer.Applies == nil || tt.analyzer.Applies(tt.path)
		if applies != tt.want {
			t.Errorf("%s.Applies(%s) = %v, want %v", tt.analyzer.Name, tt.path, applies, tt.want)
		}
	}
}

// TestPathHasSegment exercises the segment matcher's edge cases.
func TestPathHasSegment(t *testing.T) {
	tests := []struct {
		path, seg string
		want      bool
	}{
		{"bbsmine/internal/core", "internal/core", true},
		{"internal/core", "internal/core", true},
		{"internal/core/sub", "internal/core", true},
		{"a/internal/core/b", "internal/core", true},
		{"bbsmine/internal/coreutils", "internal/core", false},
		{"bbsmine/xinternal/core", "internal/core", false},
		{"bbsmine/internal/mining", "internal/core", false},
	}
	for _, tt := range tests {
		if got := pathHasSegment(tt.path, tt.seg); got != tt.want {
			t.Errorf("pathHasSegment(%q, %q) = %v, want %v", tt.path, tt.seg, got, tt.want)
		}
	}
}

// TestFormatVerbs pins the errwrap verb/argument alignment.
func TestFormatVerbs(t *testing.T) {
	tests := []struct {
		format string
		want   string
	}{
		{"plain", ""},
		{"%s: %w", "sw"},
		{"%d%%|%v", "dv"},
		{"%+v %#x %6.2f", "vxf"},
		{"%*d", "*d"},
		{"%[1]s", "s"},
	}
	for _, tt := range tests {
		got := string(formatVerbs(tt.format))
		if got != tt.want {
			t.Errorf("formatVerbs(%q) = %q, want %q", tt.format, got, tt.want)
		}
	}
}

// TestDriverFactsCrossPackage runs the cross-package fact fixture the way
// bbslint does: only the consumer is a target, so the publisher is loaded
// as a dependency, its facts computed but its diagnostics not run. The
// consumer's line-11 diagnostic exists only if the facts flowed.
func TestDriverFactsCrossPackage(t *testing.T) {
	pkgs, err := NewLoader().Load("./testdata/src/snapshotsafety/xpkg/internal/serve")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("Load returned %d packages, want only the consumer", len(pkgs))
	}
	findings := Run(pkgs, Analyzers())
	if len(findings) != 1 || findings[0].Analyzer != "snapshotsafety" || findings[0].Pos.Line != 11 {
		t.Fatalf("findings = %v, want the line-11 cross-package snapshotsafety diagnostic", findings)
	}
}

// TestExpandSkipsTestdata makes sure a recursive pattern never descends
// into fixture trees: go list's ./... skips testdata, and so bbslint does.
func TestExpandSkipsTestdata(t *testing.T) {
	pkgs, err := NewLoader().Load("./...")
	if err != nil {
		t.Fatalf("Load(./...): %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("Load(./...) returned no packages")
	}
	for _, p := range pkgs {
		if strings.Contains(p.Path, "testdata") {
			t.Errorf("Load(./...) descended into %s", p.Path)
		}
	}
}

// TestLoadErrors covers the loader's failure modes: a pattern naming a
// missing directory is an error, under /... too.
func TestLoadErrors(t *testing.T) {
	for _, pat := range []string{"./no/such/dir", "./no/such/dir/...", "/no/such/dir"} {
		if _, err := NewLoader().Load(pat); err == nil {
			t.Errorf("Load(%s) succeeded", pat)
		}
	}
}
