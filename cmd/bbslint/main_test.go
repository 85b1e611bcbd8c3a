package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"

	"bbsmine/internal/lint"
)

const fixtures = "../../internal/lint/testdata/src/"

// runLint invokes the driver exactly as main does and returns its exit
// code and streams.
func runLint(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// chdir changes the working directory for the rest of the test.
func chdir(t *testing.T, dir string) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})
}

// TestExitCodes pins the driver contract: 0 clean, 1 findings, 2 usage or
// load errors.
func TestExitCodes(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want int
	}{
		{"clean package", []string{fixtures + "pooledvec/good/internal/core"}, 0},
		{"clean subtree", []string{fixtures + "errwrap/good/..."}, 0},
		{"findings", []string{fixtures + "pooledvec/bad/internal/core"}, 1},
		{"findings in subtree", []string{fixtures + "determinism/bad/..."}, 1},
		{"unknown flag", []string{"-no-such-flag"}, 2},
		{"missing directory", []string{fixtures + "no/such/dir"}, 2},
		{"unknown analyzer", []string{"-analyzers", "nope", fixtures + "pooledvec/good/..."}, 2},
		{"list", []string{"-list"}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			code, _, stderr := runLint(t, tt.args...)
			if code != tt.want {
				t.Errorf("exit = %d, want %d (stderr: %s)", code, tt.want, stderr)
			}
		})
	}
}

// TestFindingOutput checks the canonical rendering and the findings count
// on stderr.
func TestFindingOutput(t *testing.T) {
	code, stdout, stderr := runLint(t, fixtures+"pooledvec/bad/internal/core")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(stdout, "alloc.go:9: ") || !strings.Contains(stdout, "[pooledvec]") {
		t.Errorf("stdout %q lacks file:line: message [analyzer]", stdout)
	}
	if !strings.Contains(stderr, "3 finding(s)") {
		t.Errorf("stderr %q lacks findings count", stderr)
	}
}

// TestSuppressions: a well-formed //lint:ignore (and file-ignore) silences
// the finding; a reasonless one does not and is itself reported.
func TestSuppressions(t *testing.T) {
	if code, stdout, _ := runLint(t, fixtures+"suppress/..."); code != 0 {
		t.Errorf("suppressed fixtures: exit %d, stdout %s", code, stdout)
	}
	code, stdout, _ := runLint(t, fixtures+"malformed/...")
	if code != 1 {
		t.Fatalf("malformed fixture: exit %d, want 1", code)
	}
	if !strings.Contains(stdout, "malformed suppression") || !strings.Contains(stdout, "[pooledvec]") {
		t.Errorf("malformed fixture output %q: want both the directive report and the unsuppressed finding", stdout)
	}
}

// TestDeterminismAllowlist: the same wall-clock call that is a finding in
// internal/core is silent in the allowlisted internal/exp.
func TestDeterminismAllowlist(t *testing.T) {
	if code, _, _ := runLint(t, "-analyzers", "determinism", fixtures+"determinism/allow/..."); code != 0 {
		t.Errorf("allowlisted exp package flagged, want clean")
	}
	if code, _, _ := runLint(t, "-analyzers", "determinism", fixtures+"determinism/bad/..."); code != 1 {
		t.Errorf("core fixture not flagged, want findings")
	}
}

// TestAnalyzerSubset: -analyzers restricts the run.
func TestAnalyzerSubset(t *testing.T) {
	// The determinism fixture violates nothing pooledvec checks.
	if code, stdout, _ := runLint(t, "-analyzers", "pooledvec", fixtures+"determinism/bad/..."); code != 0 {
		t.Errorf("pooledvec over determinism fixture: exit %d, stdout %s", code, stdout)
	}
}

// TestList prints every analyzer with its doc line.
func TestList(t *testing.T) {
	_, stdout, _ := runLint(t, "-list")
	for _, name := range []string{
		"atomicfield", "pooledvec", "lockdiscipline", "determinism", "errwrap",
		"snapshotsafety", "hotpathalloc",
	} {
		if !strings.Contains(stdout, name) {
			t.Errorf("-list output lacks %s", name)
		}
	}
}

// TestRepoClean is the gate `make lint` relies on: the repository at HEAD
// carries no unsuppressed findings.
func TestRepoClean(t *testing.T) {
	code, stdout, stderr := runLint(t, "../../...")
	if code != 0 {
		t.Errorf("bbslint over the repo: exit %d\n%s%s", code, stdout, stderr)
	}
}

// TestSuppressionBudget holds the repository to the suppression counts the
// README's analyzer table declares: adding (or removing) a //lint:ignore
// means updating that table's Suppressions column in the same change.
func TestSuppressionBudget(t *testing.T) {
	code, stdout, stderr := runLint(t, "-suppressions", "../../...")
	if code != 0 {
		t.Fatalf("bbslint -suppressions over the repo: exit %d\n%s", code, stderr)
	}
	got := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
		fields := strings.Fields(line)
		n, err := strconv.Atoi(fields[len(fields)-1])
		if len(fields) != 2 || err != nil {
			t.Fatalf("-suppressions line %q is not <analyzer> <count>", line)
		}
		got[fields[0]] = n
	}
	want := readmeSuppressions(t)
	for _, a := range lint.Analyzers() {
		if _, ok := want[a.Name]; !ok {
			t.Errorf("README analyzer table has no row for %s", a.Name)
		}
	}
	for name, n := range want {
		if got[name] != n {
			t.Errorf("%s: %d suppressions, README says %d", name, got[name], n)
		}
	}
	for name, n := range got {
		if _, ok := want[name]; !ok && name != "total" {
			t.Errorf("%d suppressions under %s, which the README table does not list", n, name)
		}
	}
}

// readmeSuppressions reads the Suppressions column of the analyzer table in
// internal/lint/README.md: the first table whose header has that column.
func readmeSuppressions(t *testing.T) map[string]int {
	t.Helper()
	f, err := os.Open("../../internal/lint/README.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	col := -1
	counts := map[string]int{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		cells := strings.Split(sc.Text(), "|")
		switch {
		case col < 0:
			for i, c := range cells {
				if strings.TrimSpace(c) == "Suppressions" {
					col = i
				}
			}
		case !strings.HasPrefix(sc.Text(), "|"):
			return counts
		case strings.HasPrefix(cells[1], " `"):
			n, err := strconv.Atoi(strings.TrimSpace(cells[col]))
			if err != nil {
				t.Fatalf("README row %q: Suppressions cell: %v", sc.Text(), err)
			}
			counts[strings.Trim(strings.TrimSpace(cells[1]), "`")] = n
		}
	}
	t.Fatal("README.md has no analyzer table with a Suppressions column")
	return nil
}

// TestNothingCompiled: the loader type-checks module packages from source
// and compiles none of them. The fixture module's function has no body,
// which go/types accepts and the compiler rejects, so a loader that asked
// the go command to build it would fail the run with "missing function
// body" (go vet passes it).
func TestNothingCompiled(t *testing.T) {
	chdir(t, "../../internal/lint/testdata/bodiless")
	if code, stdout, stderr := runLint(t, "./..."); code != 0 {
		t.Errorf("bbslint ./... in the bodiless module: exit %d, want 0\n%s%s", code, stdout, stderr)
	}
}

// TestNestedModulePattern: from the repository root, a /... pattern rooted
// at the nested bench module's directory lints that module, as ./... does
// (a pattern that matched no package would exit 2).
func TestNestedModulePattern(t *testing.T) {
	chdir(t, "../..")
	if code, stdout, stderr := runLint(t, "./bench/..."); code != 0 {
		t.Errorf("bbslint ./bench/... from the root: exit %d, want 0\n%s%s", code, stdout, stderr)
	}
}

// TestJSONOutput: -json replaces the text rendering with a machine-parsed
// array whose entries carry analyzer, module-relative file, and position.
func TestJSONOutput(t *testing.T) {
	code, stdout, _ := runLint(t, "-json", fixtures+"pooledvec/bad/internal/core")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var findings []struct {
		Analyzer string `json:"analyzer"`
		File     string `json:"file"`
		Line     int    `json:"line"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal([]byte(stdout), &findings); err != nil {
		t.Fatalf("stdout is not JSON: %v\n%s", err, stdout)
	}
	if len(findings) != 3 || findings[0].Analyzer != "pooledvec" || findings[0].Line != 9 {
		t.Fatalf("decoded findings = %+v, want three pooledvec, first at line 9", findings)
	}
	if !strings.HasPrefix(findings[0].File, "internal/lint/testdata/") {
		t.Errorf("file %q is not module-relative", findings[0].File)
	}

	// A clean package emits the empty array, not empty output.
	_, stdout, _ = runLint(t, "-json", fixtures+"pooledvec/good/internal/core")
	if strings.TrimSpace(stdout) != "[]" {
		t.Errorf("clean -json output = %q, want []", stdout)
	}
}

// TestSARIFOutput: -sarif - writes a SARIF 2.1.0 log with one rule per
// analyzer and one result per finding.
func TestSARIFOutput(t *testing.T) {
	code, stdout, _ := runLint(t, "-sarif", "-", fixtures+"pooledvec/bad/internal/core")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string            `json:"name"`
					Rules []json.RawMessage `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID string `json:"ruleId"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(stdout), &log); err != nil {
		t.Fatalf("stdout is not SARIF JSON: %v\n%s", err, stdout)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 || log.Runs[0].Tool.Driver.Name != "bbslint" {
		t.Fatalf("SARIF header wrong: %+v", log)
	}
	if len(log.Runs[0].Results) != 3 {
		t.Errorf("SARIF results = %+v, want three pooledvec results", log.Runs[0].Results)
	}
	for _, r := range log.Runs[0].Results {
		if r.RuleID != "pooledvec" {
			t.Errorf("SARIF result rule = %q, want pooledvec", r.RuleID)
		}
	}
}

// TestBuildConstraints: go list picks the files, so the fixture's
// //go:build ignore file, which does not type-check, is never loaded.
func TestBuildConstraints(t *testing.T) {
	if code, stdout, stderr := runLint(t, fixtures+"buildtag/..."); code != 0 {
		t.Errorf("build-constraint fixture: exit %d, want 0\n%s%s", code, stdout, stderr)
	}
}

// TestSuppressionCounts: -suppressions tallies directives per analyzer
// without running any analysis.
func TestSuppressionCounts(t *testing.T) {
	code, stdout, stderr := runLint(t, "-suppressions", fixtures+"suppress/...")
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stdout, "total") {
		t.Errorf("-suppressions output %q lacks the total row", stdout)
	}
	if !strings.Contains(stdout, "determinism") && !strings.Contains(stdout, "pooledvec") {
		t.Errorf("-suppressions output %q names no suppressed analyzer", stdout)
	}
}
