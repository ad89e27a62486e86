package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"nested", []interval{{110, 160}, {120, 130}, {140, 150}}, 50},
		{"overlapping", []interval{{110, 140}, {130, 160}}, 50},
		{"overlapping out of order", []interval{{130, 160}, {110, 140}, {155, 165}}, 45},
		{"sticking out", []interval{{50, 120}, {190, 250}}, 70},
		{"outside", []interval{{10, 50}, {200, 300}}, 100},
		{"covering", []interval{{90, 210}, {120, 130}}, 0},
		{"touching", []interval{{110, 120}, {120, 130}}, 80},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestRecorderKeepsSpansUpToLimit(t *testing.T) {
	r := newRecorder(time.Now(), 1000)
	r.limit = 2
	root := r.reserve()
	c := r.add("child", root, root, 1, 2)
	r.addWithID(root, "root", 0, 0, 0, 3)
	r.add("dropped", 0, 0, 4, 5)
	if len(r.spans) != 2 || r.dropped != 1 {
		t.Fatalf("kept %d spans, dropped %d; want 2 and 1", len(r.spans), r.dropped)
	}
	if r.spans[0].Parent != root || r.spans[0].Trace != root || r.spans[1].Trace != root || c == root {
		t.Errorf("spans %+v do not share the root's trace", r.spans)
	}

	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := writeSpans(path, r); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 3 || lines[0]["dropped_spans"] != float64(1) || lines[2]["name"] != "root" {
		t.Errorf("written spans = %v", lines)
	}
}
