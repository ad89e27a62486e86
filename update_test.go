package xrtree_test

import (
	"errors"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"xrtree"
	"xrtree/internal/join"
)

// TestJoinAfterUpdates is the differential test of the sets' access
// paths under updates: after XR-tree inserts and deletes on both
// operands, every algorithm must return exactly the reference join of the
// sets' current contents, or refuse with ErrNoAccessPath where Join
// documents the refusal (MPMGJN and B+sp on an updated set).
func TestJoinAfterUpdates(t *testing.T) {
	t.Run("one insert per set", func(t *testing.T) {
		doc, err := xrtree.ParseXML(strings.NewReader(sampleXML), 1)
		if err != nil {
			t.Fatal(err)
		}
		store := memStore(t)
		emps, err := store.IndexElements(doc.ElementsByTag("emp"), xrtree.IndexOptions{})
		if err != nil {
			t.Fatal(err)
		}
		names, err := store.IndexElements(doc.ElementsByTag("name"), xrtree.IndexOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// A new emp past the document's end, holding a new name: one more
		// emp//name pair than the 5 of sampleXML.
		emp := xrtree.Element{DocID: 1, Start: 1000, End: 1003, Level: 2}
		name := xrtree.Element{DocID: 1, Start: 1001, End: 1002, Level: 3}
		for _, u := range []struct {
			set *xrtree.ElementSet
			e   xrtree.Element
		}{{emps, emp}, {names, name}} {
			xr, err := u.set.XRTree()
			if err != nil {
				t.Fatal(err)
			}
			if err := xr.Insert(u.e); err != nil {
				t.Fatal(err)
			}
		}
		as := append(append([]xrtree.Element(nil), doc.ElementsByTag("emp")...), emp)
		ds := append(append([]xrtree.Element(nil), doc.ElementsByTag("name")...), name)
		if emps.Len() != len(as) || names.Len() != len(ds) {
			t.Errorf("Len = %d, %d after one insert each, want %d, %d", emps.Len(), names.Len(), len(as), len(ds))
		}
		checkAllAlgorithms(t, emps, names, as, ds, true)
	})
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, rng.Intn(64))
		rng.Read(script)
		checkJoinAfterUpdates(t, seed, script)
	}
}

// FuzzJoinAfterUpdates drives checkJoinAfterUpdates with arbitrary
// documents (by seed) and update scripts.
func FuzzJoinAfterUpdates(f *testing.F) {
	f.Add(int64(1), []byte{})
	f.Add(int64(2), []byte{0, 1, 2, 3})
	f.Add(int64(3), []byte{0x18, 0x19, 0x1e, 0x1f, 0x02, 0x03})
	f.Add(int64(4), []byte("inserts, deletes and a rejected batch"))
	f.Add(int64(5), []byte{0xfe, 0xff, 0xfe, 0xff, 0xfe, 0xff, 0xfe, 0xff})
	f.Fuzz(checkJoinAfterUpdates)
}

// checkJoinAfterUpdates indexes two disjoint element sets of a random
// document (seeded), applies script to their XR-trees, and checks every
// algorithm in both modes against the reference join of the models. Each
// script byte is one transaction: bit 0 picks the set, bit 1 delete (set)
// or insert (clear), the rest an index. An insert is a batch of one to
// three absent elements; one in seven also carries an element already
// present, and must then be refused without changing the set.
func checkJoinAfterUpdates(t *testing.T, seed int64, script []byte) {
	if len(script) > 256 {
		script = script[:256]
	}
	rng := rand.New(rand.NewSource(seed))
	var sets [2]struct {
		present map[uint32]xrtree.Element
		absent  []xrtree.Element
		touched bool
		set     *xrtree.ElementSet
	}
	for _, e := range regionDocument(rng, 24+rng.Intn(150)) {
		k := rng.Intn(5)
		if k >= 4 {
			continue // in neither set
		}
		s := &sets[k%2]
		if s.present == nil {
			s.present = make(map[uint32]xrtree.Element)
		}
		if k < 2 || len(s.present) == 0 {
			s.present[e.Start] = e
		} else {
			s.absent = append(s.absent, e)
		}
	}
	store := memStore(t)
	for i := range sets {
		if len(sets[i].present) == 0 {
			return // too small a document for two non-empty sets
		}
		set, err := store.IndexElements(sorted(sets[i].present), xrtree.IndexOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sets[i].set = set
	}

	for step, b := range script {
		s := &sets[b&1]
		xr, err := s.set.XRTree()
		if err != nil {
			t.Fatal(err)
		}
		k := int(b >> 2)
		if b&2 != 0 {
			if len(s.present) == 0 {
				continue
			}
			live := sorted(s.present)
			victim := live[k%len(live)]
			if err := xr.Delete(victim.Start); err != nil {
				t.Fatalf("seed %d step %d: Delete(%d): %v", seed, step, victim.Start, err)
			}
			delete(s.present, victim.Start)
			s.absent = append(s.absent, victim)
			s.touched = true
			continue
		}
		var batch []xrtree.Element
		for n := 1 + k%3; n > 0 && len(s.absent) > 0; n-- {
			j := (k + n) % len(s.absent)
			batch = append(batch, s.absent[j])
			s.absent = append(s.absent[:j], s.absent[j+1:]...)
		}
		if len(batch) == 0 {
			continue
		}
		if k%7 == 6 && len(s.present) > 0 {
			live := sorted(s.present)
			bad := append(batch, live[k%len(live)])
			if err := xr.Insert(bad...); err == nil {
				t.Fatalf("seed %d step %d: batch holding an indexed start was accepted", seed, step)
			}
			if got := s.set.Len(); got != len(s.present) {
				t.Fatalf("seed %d step %d: refused batch changed Len to %d, want %d", seed, step, got, len(s.present))
			}
		}
		if err := xr.Insert(batch...); err != nil {
			t.Fatalf("seed %d step %d: Insert(%v): %v", seed, step, batch, err)
		}
		for _, e := range batch {
			s.present[e.Start] = e
		}
		s.touched = true
	}

	for i := range sets {
		if got := sets[i].set.Len(); got != len(sets[i].present) {
			t.Errorf("seed %d: set %d Len = %d, model has %d", seed, i, got, len(sets[i].present))
		}
	}
	checkAllAlgorithms(t, sets[0].set, sets[1].set, sorted(sets[0].present), sorted(sets[1].present),
		sets[0].touched || sets[1].touched)
}

// checkAllAlgorithms joins a with d by every algorithm in both modes and
// compares each answer pair for pair with the reference join of as and
// ds. updated allows the documented ErrNoAccessPath refusal of MPMGJN and
// B+sp.
func checkAllAlgorithms(t *testing.T, a, d *xrtree.ElementSet, as, ds []xrtree.Element, updated bool) {
	t.Helper()
	for _, mode := range []xrtree.Mode{xrtree.AncestorDescendant, xrtree.ParentChild} {
		want := join.Reference(mode, as, ds)
		sortPairs(want)
		for _, alg := range []xrtree.Algorithm{
			xrtree.AlgNoIndex, xrtree.AlgMPMGJN, xrtree.AlgBPlus, xrtree.AlgBPlusSP, xrtree.AlgXRStack,
		} {
			got, err := xrtree.JoinPairs(alg, mode, a, d, nil)
			if updated && (alg == xrtree.AlgMPMGJN || alg == xrtree.AlgBPlusSP) && errors.Is(err, xrtree.ErrNoAccessPath) {
				continue
			}
			if err != nil {
				t.Fatalf("%v mode %d: %v", alg, mode, err)
			}
			sortPairs(got)
			if len(got) != len(want) {
				t.Fatalf("%v mode %d: %d pairs, want %d", alg, mode, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v mode %d: pair %d = %v, want %v", alg, mode, i, got[i], want[i])
				}
			}
		}
	}
}

// regionDocument generates n region-encoded elements of one document in
// preorder: regions are disjoint or properly nested, and levels are tree
// depths.
func regionDocument(rng *rand.Rand, n int) []xrtree.Element {
	var out []xrtree.Element
	pos := uint32(1)
	var gen func(level uint16)
	gen = func(level uint16) {
		idx := len(out)
		out = append(out, xrtree.Element{DocID: 1, Start: pos, Level: level, Ref: uint32(idx)})
		pos++
		for k := rng.Intn(4); k > 0 && len(out) < n && level < 10; k-- {
			gen(level + 1)
		}
		out[idx].End = pos
		pos++
	}
	for len(out) < n {
		gen(1)
	}
	return out
}

// sorted returns the elements of m in start order.
func sorted(m map[uint32]xrtree.Element) []xrtree.Element {
	out := make([]xrtree.Element, 0, len(m))
	for _, e := range m {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// sortPairs orders pairs by descendant, then ancestor.
func sortPairs(ps []xrtree.Pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].D.Start != ps[j].D.Start {
			return ps[i].D.Start < ps[j].D.Start
		}
		return ps[i].A.Start < ps[j].A.Start
	})
}
