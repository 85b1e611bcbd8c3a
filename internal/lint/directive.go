package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// directive is one parsed //lint:ignore or //lint:file-ignore comment.
type directive struct {
	file     string // file the directive appears in
	line     int    // line the comment ends on
	analyzer string
	fileWide bool
}

// collectDirectives parses every suppression directive in the files and
// reports malformed ones (missing analyzer or reason) and ones naming no
// analyzer of the suite as findings under the "bbslint" name, so a typo'd
// suppression, or one an analyzer's deletion left behind, fails loudly
// instead of silently not suppressing.
func collectDirectives(fset *token.FileSet, files []*ast.File) ([]directive, []Finding) {
	var dirs []directive
	var bad []Finding
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//")
				if !ok {
					continue // /* */ comments cannot carry directives
				}
				text = strings.TrimSpace(text)
				fileWide := false
				var rest string
				switch {
				case strings.HasPrefix(text, "lint:file-ignore"):
					fileWide = true
					rest = strings.TrimPrefix(text, "lint:file-ignore")
				case strings.HasPrefix(text, "lint:ignore"):
					rest = strings.TrimPrefix(text, "lint:ignore")
				default:
					continue
				}
				fields := strings.Fields(rest)
				pos := fset.Position(c.End())
				if len(fields) < 2 {
					bad = append(bad, Finding{
						Analyzer: "bbslint",
						Pos:      fset.Position(c.Pos()),
						Message:  "malformed suppression: want //lint:ignore <analyzer> <reason>",
					})
					continue
				}
				if !isAnalyzer(fields[0]) {
					bad = append(bad, Finding{
						Analyzer: "bbslint",
						Pos:      fset.Position(c.Pos()),
						Message:  fmt.Sprintf("suppression names unknown analyzer %q", fields[0]),
					})
					continue
				}
				dirs = append(dirs, directive{
					file:     pos.Filename,
					line:     pos.Line,
					analyzer: fields[0],
					fileWide: fileWide,
				})
			}
		}
	}
	return dirs, bad
}

// isAnalyzer reports whether name is one of the suite's analyzers.
func isAnalyzer(name string) bool {
	for _, a := range Analyzers() {
		if a.Name == name {
			return true
		}
	}
	return false
}

// applySuppressions drops findings[from:] that a directive covers: a
// file-ignore for the same analyzer anywhere in the file, or an ignore on
// the finding's own line or the line directly above it.
func applySuppressions(findings []Finding, from int, dirs []directive) []Finding {
	kept := findings[:from]
	for _, f := range findings[from:] {
		if !suppressed(f, dirs) {
			kept = append(kept, f)
		}
	}
	return kept
}

func suppressed(f Finding, dirs []directive) bool {
	for _, d := range dirs {
		if d.file != f.Pos.Filename || d.analyzer != f.Analyzer {
			continue
		}
		if d.fileWide || d.line == f.Pos.Line || d.line == f.Pos.Line-1 {
			return true
		}
	}
	return false
}

// DirectiveCounts tallies the //lint:ignore and //lint:file-ignore
// directives per analyzer across the packages. Malformed directives, and
// those naming an unknown analyzer, count under "bbslint". It backs
// `bbslint -suppressions` / `make lint-fix-scope`, which keep suppression
// creep visible in review.
func DirectiveCounts(pkgs []*Package) map[string]int {
	counts := map[string]int{}
	for _, pkg := range pkgs {
		dirs, bad := collectDirectives(pkg.Fset, pkg.Files)
		for _, d := range dirs {
			counts[d.analyzer]++
		}
		if len(bad) > 0 {
			counts["bbslint"] += len(bad)
		}
	}
	return counts
}
