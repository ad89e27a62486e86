package main

import (
	"io"
	"testing"
	"time"
)

// Only the listed corpora are workloads; a phase name is not one.
func TestWorkloadFlag(t *testing.T) {
	for _, w := range []string{"probe-hot", "join", ""} {
		if code := run([]string{"--workload", w, "--seconds", "1"}, io.Discard, io.Discard); code != 2 {
			t.Errorf("--workload %q: exit %d, want 2", w, code)
		}
	}
	if len(specs) < 2 {
		t.Fatalf("%d workloads, the result format needs at least 2", len(specs))
	}
}

// Every workload's serving corpus holds free leaf slots for every insert
// of a 60-second run, so no insert of a run can fail for want of one.
func TestServeSlotsLastLongestRun(t *testing.T) {
	if testing.Short() {
		t.Skip("generates full-size corpora")
	}
	inserts := int(serveRate*(60*time.Second).Seconds()*phaseShare[2]) / insertEvery
	for _, s := range specs {
		doc, err := s.serveCorpus(1)
		if err != nil {
			t.Fatal(err)
		}
		in := newServeInputs(doc, s.anc, s.desc, s.serveSel, 1)
		if need := inserts * insertBatch; len(in.slots) < need {
			t.Errorf("%s: %d free slots, a 60-second run inserts %d leaves", s.name, len(in.slots), need)
		}
	}
}
