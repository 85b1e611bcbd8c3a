// Command bbslint runs the project's static-analysis suite (internal/lint)
// over the module: seven analyzers that enforce the concurrency,
// determinism and snapshot-immutability invariants of the mining engine
// and its serving layer. It is built on the standard library and the go
// command alone — no go/packages, no external deps — so the module stays
// dependency-free.
//
// Usage:
//
//	bbslint [flags] [patterns]
//
// Patterns are go command package patterns; the default is ./... . go list
// expands them (skipping testdata, applying build constraints), and a
// directory pattern ending in /... also covers the modules nested below it,
// so ./... at the repository root lints the bench/ module too. Every run
// type-checks its packages from source in one sequential pass, with the
// standard library read from compiler export data; no module package is
// compiled, and there is no cache to go stale when an analyzer changes.
// Output is sorted by position, so equal finding sets render
// byte-identically.
//
// Exit codes: 0 — no findings; 1 — findings reported; 2 — usage or load
// error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"bbsmine/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Exit codes.
const (
	exitClean    = 0
	exitFindings = 1
	exitUsage    = 2
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bbslint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: bbslint [flags] [patterns]\n")
		fs.PrintDefaults()
	}
	var (
		listFlag  = fs.Bool("list", false, "list the analyzers and exit")
		enable    = fs.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
		jsonFlag  = fs.Bool("json", false, "emit findings as JSON on stdout instead of text")
		sarifFlag = fs.String("sarif", "", "also write findings as SARIF 2.1.0 to this file (- for stdout)")
		supprFlag = fs.Bool("suppressions", false, "print per-analyzer suppression directive counts and exit")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}

	analyzers := lint.Analyzers()
	if *listFlag {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return exitClean
	}
	if *enable != "" {
		byName := map[string]*lint.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*enable, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "bbslint: unknown analyzer %q\n", name)
				return exitUsage
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader := lint.NewLoader()
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "bbslint: %v\n", err)
		return exitUsage
	}
	if len(pkgs) == 0 {
		fmt.Fprintf(stderr, "bbslint: no packages match %v\n", patterns)
		return exitUsage
	}

	if *supprFlag {
		counts := lint.DirectiveCounts(pkgs)
		names := make([]string, 0, len(counts))
		total := 0
		for name, n := range counts {
			names = append(names, name)
			total += n
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(stdout, "%-16s %d\n", name, counts[name])
		}
		fmt.Fprintf(stdout, "%-16s %d\n", "total", total)
		return exitClean
	}

	findings := lint.Run(pkgs, analyzers)

	if *sarifFlag != "" {
		w := stdout
		var f *os.File
		if *sarifFlag != "-" {
			f, err = os.Create(*sarifFlag)
			if err != nil {
				fmt.Fprintf(stderr, "bbslint: %v\n", err)
				return exitUsage
			}
			w = f
		}
		err = lint.EmitSARIF(w, findings, analyzers, loader.ModuleRoot)
		if f != nil {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "bbslint: %v\n", err)
			return exitUsage
		}
	}

	if *jsonFlag {
		if err := lint.EmitJSON(stdout, findings, loader.ModuleRoot); err != nil {
			fmt.Fprintf(stderr, "bbslint: %v\n", err)
			return exitUsage
		}
	} else if *sarifFlag != "-" {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "bbslint: %d finding(s)\n", len(findings))
		return exitFindings
	}
	return exitClean
}
