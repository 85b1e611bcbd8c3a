package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string // import path
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	loader *Loader // back-reference for fact-universe walks; nil in hand-built packages
}

// Loader parses and type-checks packages with the standard library and the
// go command alone — no go/packages, no external dependency. One
// `go list -deps -json` per module expands the patterns (skipping
// testdata, applying build constraints) and lists every dependency
// deps-first without compiling anything. Standard-library packages are
// imported from the compiler export data a second, `-export` go list
// reports for them alone; every other package is parsed and type-checked
// from source in the first list's order, so its imports are always loaded
// before it. Loading is sequential.
type Loader struct {
	// ModuleRoot is the directory of the first main module a Load listed
	// (the current directory's, unless every pattern is rooted at a module
	// of its own); findings render relative to it.
	ModuleRoot string

	fset   *token.FileSet
	std    types.Importer    // the standard library, from export data
	export map[string]string // standard-library import path → export data file
	cache  map[string]*Package
}

// NewLoader returns an empty loader.
func NewLoader() *Loader {
	l := &Loader{
		fset:   token.NewFileSet(),
		export: map[string]string{},
		cache:  map[string]*Package{},
	}
	l.std = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		file := l.export[path]
		if file == "" {
			return nil, fmt.Errorf("lint: no export data for %s", path)
		}
		return os.Open(file)
	})
	return l
}

// Import implements types.Importer: packages loaded from source resolve to
// themselves, everything else to the standard library's export data.
func (l *Loader) Import(path string) (*types.Package, error) {
	if pkg := l.cache[path]; pkg != nil {
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// Load resolves the patterns the way the go command does in the current
// directory, and returns the matching packages type-checked and sorted by
// import path. go list stops at a nested go.mod, so a directory pattern
// ending in /... also lists every module nested below its directory, and
// one whose directory holds a go.mod is listed from that module's root.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	var here, roots []string // patterns for the current directory; module roots to list ./... in
	for _, pat := range patterns {
		base, ok := strings.CutSuffix(pat, "/...")
		if !ok || !build.IsLocalImport(base) && !filepath.IsAbs(base) {
			here = append(here, pat)
			continue
		}
		if _, err := os.Stat(filepath.Join(base, "go.mod")); err == nil {
			roots = append(roots, base)
		} else {
			here = append(here, pat)
		}
		nested, err := nestedModules(base)
		if err != nil {
			return nil, err
		}
		roots = append(roots, nested...)
	}
	var paths []string
	if len(here) > 0 {
		var err error
		if paths, err = l.list("", here); err != nil {
			return nil, err
		}
	}
	for _, root := range roots {
		more, err := l.list(root, []string{"./..."})
		if err != nil {
			return nil, err
		}
		paths = append(paths, more...)
	}
	sort.Strings(paths)
	var pkgs []*Package
	for i, path := range paths {
		if i == 0 || path != paths[i-1] {
			pkgs = append(pkgs, l.cache[path])
		}
	}
	return pkgs, nil
}

// listed is the part of go list's JSON output the loader reads.
type listed struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Export     string
	Module     *struct {
		Dir  string
		Main bool
	}
}

// list runs go list in dir (the current directory when empty), fetches
// the standard library's export data, type-checks everything else, and
// returns the import paths the patterns matched. The package listing does
// not compile anything; only the standard-library dependencies are listed
// again with -export, so a module package the compiler would reject (but
// go/types accepts) still lints, and an edit costs no rebuild.
func (l *Loader) list(dir string, patterns []string) ([]string, error) {
	pkgs, err := goList(dir, "-deps", "-json=ImportPath,Dir,GoFiles,Standard,DepOnly,Module", patterns)
	if err != nil {
		return nil, err
	}
	var std []string
	for _, p := range pkgs {
		if p.Standard && l.export[p.ImportPath] == "" {
			std = append(std, p.ImportPath)
		}
	}
	if len(std) > 0 {
		exports, err := goList(dir, "-export", "-json=ImportPath,Export", std)
		if err != nil {
			return nil, err
		}
		for _, p := range exports {
			l.export[p.ImportPath] = p.Export
		}
	}
	var matched []string
	for _, p := range pkgs {
		if l.ModuleRoot == "" && p.Module != nil && p.Module.Main {
			l.ModuleRoot = p.Module.Dir
		}
		if p.Standard {
			continue
		}
		if l.cache[p.ImportPath] == nil {
			if err := l.check(p); err != nil {
				return nil, err
			}
		}
		if !p.DepOnly {
			matched = append(matched, p.ImportPath)
		}
	}
	return matched, nil
}

// goList runs `go list <flag> <fields> <patterns>` in dir and decodes its
// package stream, which -deps orders imports before importers.
func goList(dir, flag, fields string, patterns []string) ([]listed, error) {
	cmd := exec.Command("go", append([]string{"list", flag, fields}, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %s: %w\n%s", strings.Join(patterns, " "), err, bytes.TrimSpace(stderr.Bytes()))
	}
	var pkgs []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listed
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// check parses and type-checks one listed package and caches it.
func (l *Loader) check(p listed) error {
	files := make([]*ast.File, 0, len(p.GoFiles))
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(p.ImportPath, l.fset, files, info)
	if len(typeErrs) > 0 {
		return fmt.Errorf("lint: type-checking %s: %w", p.ImportPath, typeErrs[0])
	}
	l.cache[p.ImportPath] = &Package{
		Path:   p.ImportPath,
		Dir:    p.Dir,
		Fset:   l.fset,
		Files:  files,
		Types:  tpkg,
		Info:   info,
		loader: l,
	}
	return nil
}

// nestedModules returns the roots of the modules nested below dir. Like
// the go command's /... it skips testdata, vendor, hidden and underscore
// directories.
func nestedModules(dir string) ([]string, error) {
	var roots []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return fmt.Errorf("lint: %w", err)
		}
		if !d.IsDir() || path == dir {
			return nil
		}
		if n := d.Name(); n == "testdata" || n == "vendor" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
			roots = append(roots, path)
		}
		return nil
	})
	return roots, err
}
