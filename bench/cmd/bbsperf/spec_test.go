package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestNamesAndUnits(t *testing.T) {
	seen := make(map[string]bool)
	check := func(name, unit, better string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q breaks the naming rule", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q breaks the unit rule", name, unit)
		}
		if better != "" && better != lower && better != higher {
			t.Errorf("%s: direction %q", name, better)
		}
	}
	for _, w := range workloads {
		check(w.Name, "", "")
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("%s: the reason is %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	for _, m := range endToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range perLayer {
		check(m.Name, m.Unit, m.Better)
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics exceed the driver's limits", len(workloads), len(endToEnd), len(perLayer))
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != lower {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower is better")
	}
	for _, m := range endToEnd[1:] {
		if m.Bound > endToEnd[0].Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
}

// benchmarkJSON mirrors BENCHMARK.json, exactly its keys.
type benchmarkJSON struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []workloadSpec  `json:"workloads"`
	EndToEnd   []boundedMetric `json:"end_to_end"`
	PerLayer   []layerMetric   `json:"per_layer"`
}

// The names, units, directions, bounds and workloads the program emits and
// the ones BENCHMARK.json declares to the driver are the same lists.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if len(raw) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly 6", len(raw))
	}
	var got benchmarkJSON
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	want := benchmarkJSON{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	if !reflect.DeepEqual(got, want) {
		wantJSON, _ := json.MarshalIndent(want, "", "  ")
		t.Errorf("BENCHMARK.json and spec.go disagree; spec.go says:\n%s", wantJSON)
	}
}

func TestCheckComplete(t *testing.T) {
	rep := report{}
	if err := checkComplete(rep, false); err == nil {
		t.Error("an empty untraced report passed")
	}
	for _, m := range endToEnd {
		rep.set(m.Name, 1)
	}
	if err := checkComplete(rep, false); err != nil {
		t.Errorf("a full untraced report failed: %v", err)
	}
	rep.set("not.declared", 1)
	if err := checkComplete(rep, false); err == nil {
		t.Error("an undeclared metric passed")
	}
	traced := report{}
	if err := checkComplete(traced, true); err != nil || len(traced) != len(perLayer) {
		t.Errorf("a traced report was not filled to the per-layer list: %d of %d, %v", len(traced), len(perLayer), err)
	}
}
