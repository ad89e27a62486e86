package main

import (
	"sort"
	"testing"
	"time"

	"xrtree"
	"xrtree/internal/datagen"
	"xrtree/internal/join"
	"xrtree/internal/xmldoc"
)

func tinyCorpora(t *testing.T) []datagen.Corpus {
	t.Helper()
	dept, err := datagen.Department(datagen.DeptConfig{Seed: 7, DocID: 1, Departments: 3, Employees: 8})
	if err != nil {
		t.Fatal(err)
	}
	conf, err := datagen.Conference(datagen.ConfConfig{Seed: 8, DocID: 2, Conferences: 3, Papers: 6})
	if err != nil {
		t.Fatal(err)
	}
	return []datagen.Corpus{
		{Name: "employee/name", Doc: dept, AncestorTag: "employee", DescendantTag: "name"},
		{Name: "paper/author", Doc: conf, AncestorTag: "paper", DescendantTag: "author"},
	}
}

func TestReferenceJoinEqualsBruteForce(t *testing.T) {
	for _, p := range joinPoints(tinyCorpora(t), 3) {
		got := referenceJoin(xrtree.AncestorDescendant, p.sets.A, p.sets.D, p.parts)
		want := join.Reference(xrtree.AncestorDescendant, p.sets.A, p.sets.D)
		if !samePairs(got, want) || len(got) != p.pairs {
			t.Errorf("%s: %d pairs by parts, %d by brute force, %d measured", p.name, len(got), len(want), p.pairs)
		}
	}
	// An ancestor outside every part still joins.
	root := xmldoc.Element{DocID: 1, Start: 1, End: 100, Level: 1}
	parts := []xmldoc.Element{{DocID: 1, Start: 10, End: 20, Level: 2}}
	ds := []xmldoc.Element{{DocID: 1, Start: 11, End: 12, Level: 3}, {DocID: 1, Start: 30, End: 31, Level: 2}}
	if got := referenceJoin(xrtree.AncestorDescendant, []xmldoc.Element{root}, ds, parts); len(got) != 2 {
		t.Errorf("root ancestor: %d pairs, want 2", len(got))
	}
}

func TestJoinColdOracles(t *testing.T) {
	j, err := buildJoinCold(t.TempDir(), joinPoints(tinyCorpora(t), 3))
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	if err := j.verify(); err != nil {
		t.Fatalf("set-up oracle on a correct store: %v", err)
	}
	plain, err := j.run(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.rounds != 1 || len(plain.wrong) != 0 || plain.failed != 0 {
		t.Fatalf("rounds %d, wrong %v, failed %d", plain.rounds, plain.wrong, plain.failed)
	}
	// The traced path runs the same joins: every count repeats.
	traced, err := j.run(0, newRecorder(time.Now(), 0))
	if err != nil {
		t.Fatal(err)
	}
	if !equalCounts(plain.counts, traced.counts) || len(traced.wrong) != 0 {
		t.Errorf("traced counts differ from untraced ones: %v", traced.wrong)
	}
	if traced.ancProbes == 0 || len(traced.selfMS) != traced.xrJoins {
		t.Errorf("traced run recorded %d probes and %d self times for %d joins", traced.ancProbes, len(traced.selfMS), traced.xrJoins)
	}
	// A wrong expected count fails the run.
	j.points[0].pairs++
	bad, err := j.run(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad.wrong) != len(joinAlgs) {
		t.Errorf("a wrong pair count was reported %d times, want once per algorithm", len(bad.wrong))
	}
	j.points[0].pairs--
	j.points[1].sets.A = j.points[1].sets.A[1:]
	if err := j.verify(); err == nil {
		t.Error("set-up oracle accepted a store that disagrees with the reference")
	}
}

func TestProbeOracle(t *testing.T) {
	doc := tinyCorpora(t)[0].Doc
	set := doc.ElementsByTag("employee")
	h, err := buildProbeHot(t.TempDir(), set, set, doc.ElementsByTag("name"))
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	if err := h.verify(5); err != nil {
		t.Fatalf("probe oracle on a correct tree: %v", err)
	}
	h.set = h.set[:len(h.set)-1]
	if err := h.verify(5); err == nil {
		t.Error("probe oracle accepted answers that include an element the reference lacks")
	}
	h.set = set
	r := h.run(5, 20*time.Millisecond, time.Now(), true)
	if r.failed != 0 || r.probes == 0 || r.misses != 0 {
		t.Errorf("probes %d, failed %d, pool misses %d", r.probes, r.failed, r.misses)
	}
	if got := len(r.ancUS) + len(r.descUS); int64(got) != r.probes {
		t.Errorf("%d core spans for %d probes", got, r.probes)
	}
}

func TestServeOracles(t *testing.T) {
	doc, err := datagen.Department(datagen.DeptConfig{Seed: 7, DocID: 1, Departments: 3, Employees: 10, PositionGap: serveGap})
	if err != nil {
		t.Fatal(err)
	}
	in := newServeInputs(doc, "employee", "name", 0.02, 3)
	s, err := buildServeMixed(t.TempDir(), in)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.close(); err != nil {
			t.Error(err)
		}
	}()
	offer := func(n int) *serveRun {
		reqs, err := in.schedule(n)
		if err != nil {
			t.Fatal(err)
		}
		dues := make([]time.Duration, n)
		for i := range dues {
			dues[i] = time.Duration(i) * time.Millisecond
		}
		return s.run(in, reqs, dues, time.Now(), true)
	}
	r := offer(4 * insertEvery)
	if len(r.wrong) != 0 || r.failed != 0 || len(r.acked) != 4*insertBatch || r.ackedPairs == 0 {
		t.Fatalf("wrong %v, failed %d, acked %d elements adding %d pairs", r.wrong, r.failed, len(r.acked), r.ackedPairs)
	}
	if reads := 4 * (insertEvery - 1); len(r.readMS) != reads || len(r.insertMS) != 4 || len(r.overheadMS) != reads {
		t.Errorf("%d reads, %d server insert times, %d read overheads", len(r.readMS), len(r.insertMS), len(r.overheadMS))
	}
	if err := s.verifyFinal(in, r.acked); err != nil {
		t.Fatalf("final oracle after correct inserts: %v", err)
	}
	lost := append(append([]xmldoc.Element(nil), r.acked...), in.slots[0].leaf)
	sort.Slice(lost, func(i, j int) bool { return lost[i].Start < lost[j].Start })
	if err := s.verifyFinal(in, lost); err == nil {
		t.Error("final oracle accepted an acknowledged insert missing from the tree")
	}
	// Joins whose counts fall outside the bounds are wrong answers.
	in.basePairs += r.ackedPairs + 1_000_000
	if bad := offer(insertEvery); len(bad.wrong) != insertEvery-1 {
		t.Errorf("%d joins flagged outside the bounds, want %d", len(bad.wrong), insertEvery-1)
	}
}
