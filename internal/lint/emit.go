package lint

import (
	"encoding/json"
	"io"
	"path/filepath"
	"strings"
)

// jsonFinding is the machine-readable rendering of one finding. Paths are
// module-root-relative with forward slashes so the output is stable across
// checkouts.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

// relFile renders a finding's filename relative to the module root.
func relFile(moduleRoot, name string) string {
	if rel, err := filepath.Rel(moduleRoot, name); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(name)
}

// EmitJSON writes the findings as an indented JSON array (an empty run
// emits []). The findings must already be sorted; the emitter adds nothing
// nondeterministic, so equal finding sets render byte-identically.
func EmitJSON(w io.Writer, findings []Finding, moduleRoot string) error {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, jsonFinding{
			Analyzer: f.Analyzer,
			File:     relFile(moduleRoot, f.Pos.Filename),
			Line:     f.Pos.Line,
			Column:   f.Pos.Column,
			Message:  f.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Minimal SARIF 2.1.0 document model — just the subset CI code-scanning
// uploads and artifact viewers consume.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifToolDriver `json:"driver"`
}

type sarifToolDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID   string `json:"id"`
	Desc struct {
		Text string `json:"text"`
	} `json:"shortDescription"`
}

type sarifResult struct {
	RuleID  string `json:"ruleId"`
	Level   string `json:"level"`
	Message struct {
		Text string `json:"text"`
	} `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	Physical struct {
		Artifact struct {
			URI string `json:"uri"`
		} `json:"artifactLocation"`
		Region struct {
			StartLine   int `json:"startLine"`
			StartColumn int `json:"startColumn,omitempty"`
		} `json:"region"`
	} `json:"physicalLocation"`
}

// EmitSARIF writes the findings as a SARIF 2.1.0 log with one rule per
// analyzer (plus the "bbslint" pseudo-rule for bad suppressions),
// suitable for CI annotation uploads.
func EmitSARIF(w io.Writer, findings []Finding, analyzers []*Analyzer, moduleRoot string) error {
	var run sarifRun
	run.Tool.Driver.Name = "bbslint"
	for _, a := range analyzers {
		r := sarifRule{ID: a.Name}
		r.Desc.Text = a.Doc
		run.Tool.Driver.Rules = append(run.Tool.Driver.Rules, r)
	}
	dir := sarifRule{ID: "bbslint"}
	dir.Desc.Text = "suppression directives must name an analyzer of the suite and a reason"
	run.Tool.Driver.Rules = append(run.Tool.Driver.Rules, dir)

	run.Results = make([]sarifResult, 0, len(findings))
	for _, f := range findings {
		var res sarifResult
		res.RuleID = f.Analyzer
		res.Level = "error"
		res.Message.Text = f.Message
		var loc sarifLocation
		loc.Physical.Artifact.URI = relFile(moduleRoot, f.Pos.Filename)
		loc.Physical.Region.StartLine = f.Pos.Line
		loc.Physical.Region.StartColumn = f.Pos.Column
		res.Locations = append(res.Locations, loc)
		run.Results = append(run.Results, res)
	}

	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{run},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}
