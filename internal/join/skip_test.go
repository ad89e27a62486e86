package join

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	"xrtree/internal/bufferpool"
	"xrtree/internal/core"
	"xrtree/internal/metrics"
	"xrtree/internal/xmldoc"
)

// leafLayout scans src once and returns its starts in order and, for each
// element, the index of the first element of its leaf: a Next that crosses
// a page boundary counts one leaf read.
func leafLayout(t *testing.T, src Seeker) (starts []uint32, leafFirst []int) {
	t.Helper()
	var c metrics.Counters
	it, err := src.Scan(&c)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	first := 0
	for {
		before := c.LeafReads
		e, ok := it.Next()
		if !ok {
			break
		}
		if c.LeafReads != before {
			first = len(starts)
		}
		starts = append(starts, e.Start)
		leafFirst = append(leafFirst, first)
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return starts, leafFirst
}

// TestCursorSeekMatchesSeekGE is the property behind every index skip of
// the joins: for random targets, cursor.seek lands on exactly the element
// a fresh SeekGE returns and scans nothing, whether the target is in the
// held leaf copy (SkipTo) or not (fallback to SeekGE). The joins only skip
// forward; backward targets check that SkipTo refuses what it cannot see.
func TestCursorSeekMatchesSeekGE(t *testing.T) {
	const (
		kindStored   = iota // a stored start a few elements ahead
		kindPastLeaf        // one past the current leaf's last start
		kindNextLeaf        // a start stored on the following leaf
		kindRandom          // any key up to just past the last start
		kindBackward        // a stored start at or before the current one
		kinds
	)
	for _, seed := range []int64{1, 5, 23} {
		rng := rand.New(rand.NewSource(seed))
		as, _ := genDoc(rng, 600, 300, 10)
		f := buildFixture(t, newPool(t, 512, 256), as)
		for _, src := range []Seeker{f.xr, f.bt} {
			name := fmt.Sprintf("seed %d %T", seed, src)
			starts, leafFirst := leafLayout(t, src)
			if leafFirst[len(leafFirst)-1] == 0 {
				t.Fatalf("%s: one leaf; the fixture must span several", name)
			}
			last := starts[len(starts)-1]
			var skips, fallbacks, byKind [kinds]int
			for run := 0; run < 20; run++ {
				var c metrics.Counters
				it, err := src.Scan(&c)
				if err != nil {
					t.Fatal(err)
				}
				cur := newCursor(it)
				for cur.valid {
					pos := sort.Search(len(starts), func(i int) bool { return starts[i] >= cur.cur.Start })
					nextLeaf := len(starts)
					for i := pos + 1; i < len(starts); i++ {
						if leafFirst[i] != leafFirst[pos] {
							nextLeaf = i
							break
						}
					}
					kind := rng.Intn(kinds)
					var key uint32
					switch kind {
					case kindStored:
						key = starts[min(pos+1+rng.Intn(4), len(starts)-1)]
					case kindPastLeaf:
						key = starts[nextLeaf-1] + 1
					case kindNextLeaf:
						if nextLeaf == len(starts) {
							key = last + 1
						} else {
							key = starts[min(nextLeaf+rng.Intn(2), len(starts)-1)]
						}
					case kindRandom:
						key = cur.cur.Start + 1 + uint32(rng.Intn(int(last+2-cur.cur.Start)))
					default:
						key = starts[max(pos-rng.Intn(3), 0)]
					}
					want, wantOK := seekFresh(t, src, key)

					before := c
					if err := cur.seek(src, key, &c); err != nil {
						t.Fatal(err)
					}
					if cur.valid != wantOK || (wantOK && cur.cur != want) {
						t.Fatalf("%s: seek(%d) from %d = %v,%v; SeekGE gives %v,%v",
							name, key, starts[pos], cur.cur, cur.valid, want, wantOK)
					}
					if c.ElementsScanned != before.ElementsScanned {
						t.Fatalf("%s: seek(%d) scanned %d elements", name, key, c.ElementsScanned-before.ElementsScanned)
					}
					byKind[kind]++
					if c == before {
						skips[kind]++
					} else {
						fallbacks[kind]++
					}
					// Walk a few elements so later skips start mid-leaf.
					for n := 1 + rng.Intn(3); n > 0 && cur.valid; n-- {
						cur.advance()
					}
				}
				// An exhausted cursor falls back and stays exhausted.
				if err := cur.seek(src, last+1, &c); err != nil || cur.valid {
					t.Fatalf("%s: seek past the end = %v,%v (err %v)", name, cur.cur, cur.valid, err)
				}
				if err := cur.close(); err != nil {
					t.Fatal(err)
				}
			}
			for k := 0; k < kinds; k++ {
				if byKind[k] == 0 {
					t.Errorf("%s: target kind %d never drawn", name, k)
				}
			}
			if skips[kindStored] == 0 || skips[kindRandom] == 0 {
				t.Errorf("%s: no in-leaf skip (skips %v)", name, skips)
			}
			if skips[kindPastLeaf] != 0 || skips[kindNextLeaf] != 0 {
				t.Errorf("%s: a target beyond the leaf skipped in place (skips %v)", name, skips)
			}
			if fallbacks[kindPastLeaf] == 0 || fallbacks[kindNextLeaf] == 0 {
				t.Errorf("%s: no fallback seek (fallbacks %v)", name, fallbacks)
			}
		}
	}
}

// seekFresh returns the element a new SeekGE(key) iterator starts at.
func seekFresh(t *testing.T, src Seeker, key uint32) (xmldoc.Element, bool) {
	t.Helper()
	it, err := src.SeekGE(key, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	return it.Peek()
}

// flatSets is TestSkippingCounts' input: 2,000 flat sibling ancestors, of
// which every 20th contains five descendants.
func flatSets() (as, ds []xmldoc.Element) {
	pos := uint32(1)
	for i := 0; i < 2000; i++ {
		start := pos
		if i%20 == 0 {
			// A joining ancestor containing 5 descendants.
			pos++
			for k := 0; k < 5; k++ {
				ds = append(ds, xmldoc.Element{DocID: 1, Start: pos, End: pos + 1, Level: 3})
				pos += 2
			}
		}
		pos++
		as = append(as, xmldoc.Element{DocID: 1, Start: start, End: pos, Level: 2})
		pos++
	}
	return as, ds
}

// TestSkipGoldenCounts pins the paper's Table 2/3 metric on fixed inputs:
// elements scanned and output pairs of XR-stack, B+ and B+sp, in both
// modes, are the figures the joins gave when every skip re-descended the
// index. Skipping inside the leaf copy changes how a target is reached,
// never what is counted.
func TestSkipGoldenCounts(t *testing.T) {
	type counts struct{ scanned, pairs int64 }
	type golden struct{ xr, bplus, bplussp counts }
	nested := func() (*bufferpool.Pool, []xmldoc.Element, []xmldoc.Element) {
		as, ds := genDoc(rand.New(rand.NewSource(77)), 400, 700, 12)
		return newPool(t, 512, 512), as, ds
	}
	flat := func() (*bufferpool.Pool, []xmldoc.Element, []xmldoc.Element) {
		as, ds := flatSets()
		return newPool(t, 512, 512), as, ds
	}
	bench := func() (*bufferpool.Pool, []xmldoc.Element, []xmldoc.Element) { return benchSets(t) }
	for _, tc := range []struct {
		name  string
		sets  func() (*bufferpool.Pool, []xmldoc.Element, []xmldoc.Element)
		modes [2]golden // AncestorDescendant, ParentChild
	}{
		{"bplussp-fixture", nested, [2]golden{
			{counts{719, 2153}, counts{903, 2153}, counts{903, 2153}},
			{counts{719, 194}, counts{903, 194}, counts{903, 194}},
		}},
		{"xrstack-bench", bench, [2]golden{
			{counts{2737, 5723}, counts{3668, 5723}, counts{3668, 5723}},
			{counts{2737, 958}, counts{3668, 958}, counts{3668, 958}},
		}},
		{"flat", flat, [2]golden{
			{counts{600, 500}, counts{2481, 500}, counts{2481, 500}},
			{counts{600, 500}, counts{2481, 500}, counts{2481, 500}},
		}},
	} {
		pool, as, ds := tc.sets()
		fa := buildFixture(t, pool, as)
		fd := buildFixture(t, pool, ds)
		sp, err := NewSiblingListSource(fa.list.L, as)
		if err != nil {
			t.Fatal(err)
		}
		for mi, mode := range []Mode{AncestorDescendant, ParentChild} {
			run := func(alg string, join func(c *metrics.Counters) error, want counts) {
				var c metrics.Counters
				if err := join(&c); err != nil {
					t.Fatalf("%s %s: %v", tc.name, alg, err)
				}
				if got := (counts{c.ElementsScanned, c.OutputPairs}); got != want {
					t.Errorf("%s mode %d %s: scanned %d, pairs %d; want %d, %d",
						tc.name, mode, alg, got.scanned, got.pairs, want.scanned, want.pairs)
				}
			}
			g := tc.modes[mi]
			run("XRStack", func(c *metrics.Counters) error {
				return XRStack(mode, fa.xr, fd.xr, nil2(), c)
			}, g.xr)
			run("BPlus", func(c *metrics.Counters) error {
				return BPlus(mode, fa.bt, fd.bt, nil2(), c)
			}, g.bplus)
			run("BPlusSP", func(c *metrics.Counters) error {
				return BPlusSP(mode, sp, fd.bt, nil2(), c)
			}, g.bplussp)
		}
	}
}

// TestXRStackBesideInsertBatches runs XR-stack joins, which skip inside
// their iterators' leaf copies, while another goroutine commits insert
// batches into the joined descendant set (run with -race). Inserts only
// add, and each join reads every page from a private copy, so a join must
// report at least the pairs committed before it started and at most those
// committed by its end.
func TestXRStackBesideInsertBatches(t *testing.T) {
	const (
		nAnc   = 200
		span   = 1000 // document positions per ancestor slot
		inside = 400  // an ancestor covers (slot, slot+inside)
		batch  = 8
		rounds = 60
	)
	// Flat ancestors with a gap after each, so the join skips descendants
	// (line 19) as well as ancestors (line 12).
	var as []xmldoc.Element
	for i := uint32(0); i < nAnc; i++ {
		as = append(as, xmldoc.Element{DocID: 1, Start: i*span + 1, End: i*span + inside, Level: 1})
	}
	rng := rand.New(rand.NewSource(11))
	// Descendants sit on even offsets; each batch draws fresh positions,
	// about half of them inside an ancestor (one pair each).
	free := rng.Perm(nAnc * span / 2)
	var next int
	draw := func(n int) (es []xmldoc.Element, pairs int64) {
		for ; len(es) < n; next++ {
			off := uint32(free[next]) * 2
			if off%span == 0 || off%span == inside {
				continue // an ancestor's start or end would share the position
			}
			es = append(es, xmldoc.Element{DocID: 1, Start: off, End: off + 1, Level: 2})
			if off%span < inside {
				pairs++
			}
		}
		sort.Slice(es, func(i, j int) bool { return es[i].Start < es[j].Start })
		return es, pairs
	}
	ds, initial := draw(2000)

	pool := newPool(t, 512, 512)
	build := func(es []xmldoc.Element) *core.Tree {
		tr, err := core.New(pool, 1, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.BulkLoad(es, 1.0); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	xa, xd := XRTreeSource{T: build(as)}, XRTreeSource{T: build(ds)}

	// A batch's pairs join the upper bound before its Insert starts and the
	// lower bound once it has returned: a join may see the batch at any
	// point in between.
	var started, committed atomic.Int64
	started.Store(initial)
	committed.Store(initial)
	done := make(chan struct{})
	writerErr := make(chan error, 1)
	go func() {
		defer close(done)
		for r := 0; r < rounds; r++ {
			es, pairs := draw(batch)
			started.Add(pairs)
			if err := xd.T.Insert(es...); err != nil {
				writerErr <- err
				return
			}
			committed.Add(pairs)
		}
	}()

	joins := 0
	for finished := false; !finished; joins++ {
		select {
		case <-done:
			finished = true // one more join on the final contents
		default:
		}
		lo := committed.Load()
		var c metrics.Counters
		if err := XRStack(AncestorDescendant, xa, xd, nil2(), &c); err != nil {
			t.Fatalf("join %d: %v", joins, err)
		}
		hi := started.Load()
		if c.OutputPairs < lo || c.OutputPairs > hi {
			t.Fatalf("join %d: %d pairs, want within [%d, %d]", joins, c.OutputPairs, lo, hi)
		}
		if finished && c.OutputPairs != lo {
			t.Fatalf("join after the last batch: %d pairs, want %d", c.OutputPairs, lo)
		}
	}
	select {
	case err := <-writerErr:
		t.Fatalf("insert: %v", err)
	default:
	}
	t.Logf("%d joins beside %d batches; %d pairs at the end", joins, rounds, committed.Load())
}

// TestJoinAllocs guards the joins' allocations on the benchmark fixture: a
// skip inside the held leaf copy allocates nothing, so a join makes a few
// dozen allocations in all. An iterator or a sort closure per skip would
// add thousands.
func TestJoinAllocs(t *testing.T) {
	const maxAllocs = 64
	xa, xd := benchXR(t)
	ba, bd := benchBTree(t)
	for _, tc := range []struct {
		name string
		join func(c *metrics.Counters) error
	}{
		{"XRStack", func(c *metrics.Counters) error { return XRStack(AncestorDescendant, xa, xd, nil2(), c) }},
		{"BPlus", func(c *metrics.Counters) error { return BPlus(AncestorDescendant, ba, bd, nil2(), c) }},
	} {
		var err error
		allocs := testing.AllocsPerRun(5, func() {
			var c metrics.Counters
			if e := tc.join(&c); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if allocs > maxAllocs {
			t.Errorf("%s: %.0f allocs per join, want ≤ %d", tc.name, allocs, maxAllocs)
		}
	}
}
