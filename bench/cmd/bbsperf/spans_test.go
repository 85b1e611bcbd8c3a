package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "round", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "mine", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "count", Start: 30, End: 60}, // overlaps span 2 by 10
		{ID: 4, Parent: 2, Name: "kernel", Start: 15, End: 25},
		{ID: 5, Parent: 1, Name: "late", Start: 90, End: 120}, // runs past its parent
		{ID: 6, Name: "leaf", Start: 200, End: 230},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{
		1: 100 - (30 + 20 + 10), // children cover 10..60 and 90..100
		2: 30 - 10,
		3: 30,
		4: 10,
		5: 30,
		6: 30,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestRecorder(t *testing.T) {
	var off *recorder
	if id := off.begin("x", 0, 0); id != 0 {
		t.Errorf("a nil recorder opened span %d", id)
	}
	off.end(0)
	off.add("x", 0, 0, 1, 2)

	rec := newRecorder()
	root := rec.begin("request", 0, 7)
	child := rec.begin("stage", root, 7)
	rec.end(child)
	rec.end(root)
	rec.add("server", root, 7, rec.startOf(root), rec.startOf(root)+5)
	path := filepath.Join(t.TempDir(), "sub", "spans.json")
	if err := rec.write(path, wlServe, 3); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file spanFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if file.Workload != wlServe || file.Seed != 3 || len(file.Spans) != 3 {
		t.Fatalf("span file holds %+v", file)
	}
	for _, s := range file.Spans {
		if s.Op != 7 || s.End < s.Start || (s.ID != root && s.Parent != root) {
			t.Errorf("span %+v is not part of operation 7 under the root", s)
		}
	}
	if _, ok := file.SelfNs["request"]; !ok {
		t.Errorf("self time by name lacks the root: %v", file.SelfNs)
	}
}
