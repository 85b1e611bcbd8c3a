// Package lint is the project's static-analysis suite: a small analyzer
// framework plus the seven analyzers that encode the engine's concurrency
// and determinism invariants — the unwritten rules the parallel mining
// engine (internal/core), the bit-sliced index (internal/sigfile/shard)
// and the serving layer (internal/serve) rely on, and that ordinary tests
// only catch when they happen to race.
//
// The framework deliberately uses nothing outside the standard library
// (go/parser, go/types, go/importer), so go.mod stays dependency-free.
// cmd/bbslint is the command-line driver; `make lint` runs it over ./...
// See README.md in this directory for the full analyzer catalogue.
//
// Analyzer scopes (what each analyzer's Applies predicate covers):
//
//	atomicfield     internal/iostat, internal/obs
//	pooledvec       internal/core
//	lockdiscipline  every package
//	determinism     every package except internal/exp, internal/weblog,
//	                internal/quest, internal/obs, cmd, examples;
//	                cmd/bbsload opts back in under relaxed loadgen rules
//	                (no global-source draws, no rand.Seed, no time-seeded
//	                sources; clock reads and flag-seeded draws are fine)
//	errwrap         every package (discard rule scoped to internal/txdb,
//	                internal/sigfile, internal/serve, internal/shard,
//	                internal/pager)
//	snapshotsafety  internal/core, internal/sigfile, internal/serve,
//	                internal/shard, internal/pager (facts exported from
//	                every package)
//	hotpathalloc    every package (only //lint:hotpath functions checked)
//
// Analyzers may export per-package facts (Analyzer.Facts): serializable
// summaries — which types a package publishes as immutable snapshots,
// which methods mutate them — that analyses of dependent packages consume
// through Pass.Fact. Facts are computed for every module-local package in
// dependency order regardless of Applies, so a diagnostic in internal/serve
// can know that sigfile.BBS.Insert mutates its receiver. Run is the one
// driver: a sequential in-memory pass over packages the Loader type-checked.
//
// Findings can be suppressed at the reporting site:
//
//	//lint:ignore <analyzer> <reason>       on the finding's line or the line above
//	//lint:file-ignore <analyzer> <reason>  anywhere in the file, silences the whole file
//
// The reason is mandatory: a suppression documents why the invariant holds
// anyway, and the analyzers' value is exactly that the "why" is written down.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in findings and suppression comments.
	Name string
	// Doc is a one-line description of the rule the analyzer enforces.
	Doc string
	// Applies reports whether the analyzer checks the package with the
	// given import path. A nil Applies checks every package. Applies gates
	// diagnostics only: facts are computed for every module-local package.
	Applies func(pkgPath string) bool
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
	// Facts, when non-nil, computes the package's exported fact. It runs
	// before any diagnostics, for every module-local package in dependency
	// order, so Run can read its imports' facts through Pass.Fact.
	Facts func(*Pass) any
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	findings *[]Finding
	facts    factStore
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Fact returns this analyzer's fact for the package with the given import
// path — the pass's own package or any module-local dependency — or nil if
// none was exported.
func (p *Pass) Fact(pkgPath string) any {
	return p.facts[factKey{p.Analyzer.Name, pkgPath}]
}

// factStore holds the per-(analyzer, package) facts of one run.
type factStore map[factKey]any

type factKey struct {
	analyzer string
	pkg      string
}

// Finding is one reported violation.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the finding in the suite's canonical
// "file:line: message [analyzer]" form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s [%s]", f.Pos.Filename, f.Pos.Line, f.Message, f.Analyzer)
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AtomicField,
		PooledVec,
		LockDiscipline,
		Determinism,
		ErrWrap,
		SnapshotSafety,
		HotPathAlloc,
	}
}

// Run applies each analyzer to each package it covers and returns the
// surviving findings (suppressions applied), sorted by position. Malformed
// suppression directives, and those naming no analyzer of the suite, are
// themselves reported, under the "bbslint" name.
//
// Facts are computed first, sequentially, for the supplied packages and
// every module-local package they (transitively) import, in dependency
// order — the loader has those dependencies cached from type-checking.
// Output is deterministic: findings are sorted by (file, line, column,
// analyzer, message), a total order.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	store := factStore{}
	computeFacts(factUniverse(pkgs), analyzers, store)

	var findings []Finding
	for _, pkg := range pkgs {
		findings = append(findings, analyzePackage(pkg, analyzers, store)...)
	}
	sortFindings(findings)
	return findings
}

// analyzePackage runs every applicable analyzer over one package, applies
// suppressions and returns the surviving findings, unsorted.
func analyzePackage(pkg *Package, analyzers []*Analyzer, store factStore) []Finding {
	dirs, findings := collectDirectives(pkg.Fset, pkg.Files)
	for _, a := range analyzers {
		if a.Applies != nil && !a.Applies(pkg.Path) {
			continue
		}
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			findings: &findings,
			facts:    store,
		}
		before := len(findings)
		a.Run(pass)
		findings = applySuppressions(findings, before, dirs)
	}
	return findings
}

// computeFacts evaluates every fact-exporting analyzer over the packages,
// which must already be in dependency order (imports before importers).
func computeFacts(ordered []*Package, analyzers []*Analyzer, store factStore) {
	for _, pkg := range ordered {
		for _, a := range analyzers {
			if a.Facts == nil {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				facts:    store,
			}
			if fact := a.Facts(pass); fact != nil {
				store[factKey{a.Name, pkg.Path}] = fact
			}
		}
	}
}

// factUniverse returns the supplied packages plus every module-local
// package they transitively import (available from the loader cache after
// type-checking), topologically sorted so imports precede importers.
func factUniverse(pkgs []*Package) []*Package {
	byPath := map[string]*Package{}
	var add func(p *Package)
	add = func(p *Package) {
		if p == nil || byPath[p.Path] != nil {
			return
		}
		byPath[p.Path] = p
		if p.loader == nil {
			return
		}
		for _, imp := range p.Types.Imports() {
			add(p.loader.cache[imp.Path()])
		}
	}
	for _, p := range pkgs {
		add(p)
	}

	paths := make([]string, 0, len(byPath))
	for _, p := range pkgs {
		paths = append(paths, p.Path)
	}
	sort.Strings(paths)
	// Depth-first over imports gives a topological order; visit roots in
	// sorted order (and imports in go/types' stable order) so the result
	// is deterministic.
	ordered := make([]*Package, 0, len(byPath))
	done := map[string]bool{}
	var visit func(p *Package)
	visit = func(p *Package) {
		if p == nil || done[p.Path] {
			return
		}
		done[p.Path] = true
		for _, imp := range p.Types.Imports() {
			visit(byPath[imp.Path()])
		}
		ordered = append(ordered, p)
	}
	for _, path := range paths {
		visit(byPath[path])
	}
	// Packages reachable only through the loader cache (not the roots)
	// were all added by add() through import edges of the roots, so the
	// visit above covered everything in byPath.
	return ordered
}

// sortFindings orders findings by position, then analyzer, then message —
// a total order.
func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// pathHasSegment reports whether the slash-separated import path contains
// seg as a consecutive run of path segments. It is how analyzers scope
// themselves: the real package bbsmine/internal/core and a test fixture
// .../testdata/src/pooledvec/internal/core both contain "internal/core".
func pathHasSegment(path, seg string) bool {
	return path == seg ||
		strings.HasPrefix(path, seg+"/") ||
		strings.HasSuffix(path, "/"+seg) ||
		strings.Contains(path, "/"+seg+"/")
}

// errorType is the universe error interface, for implements-checks.
var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorType reports whether t implements error.
func isErrorType(t types.Type) bool {
	return t != nil && types.Implements(t, errorType)
}
