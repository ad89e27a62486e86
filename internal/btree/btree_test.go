package btree

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"xrtree/internal/bufferpool"
	"xrtree/internal/metrics"
	"xrtree/internal/pagefile"
	"xrtree/internal/xmldoc"
)

func newPool(t *testing.T, pageSize, frames int) *bufferpool.Pool {
	t.Helper()
	f := pagefile.NewMem(pagefile.Options{PageSize: pageSize})
	t.Cleanup(func() { f.Close() })
	p, err := bufferpool.New(f, frames)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func elem(start uint32) xmldoc.Element {
	return xmldoc.Element{DocID: 1, Start: start, End: start + 1, Level: 1, Ref: start}
}

// collect drains the tree via a full scan.
func collect(t *testing.T, tr *Tree) []xmldoc.Element {
	t.Helper()
	it, err := tr.Scan(nil)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	defer it.Close()
	var out []xmldoc.Element
	for {
		e, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, e)
	}
	if it.Err() != nil {
		t.Fatalf("scan error: %v", it.Err())
	}
	return out
}

// bulk returns a tree bulk-loaded (packed) with elem(k) for every k.
func bulk(t *testing.T, pool *bufferpool.Pool, keys ...uint32) *Tree {
	t.Helper()
	tr, err := New(pool, 1)
	if err != nil {
		t.Fatal(err)
	}
	es := make([]xmldoc.Element, len(keys))
	for i, k := range keys {
		es[i] = elem(k)
	}
	if err := tr.BulkLoad(es, 1.0); err != nil {
		t.Fatalf("BulkLoad: %v", err)
	}
	return tr
}

// seq returns the keys step·i + first for i < n.
func seq(n int, first, step uint32) []uint32 {
	keys := make([]uint32, n)
	for i := range keys {
		keys[i] = first + step*uint32(i)
	}
	return keys
}

func TestBulkLoadLookupScan(t *testing.T) {
	pool := newPool(t, 256, 32)
	tr := bulk(t, pool, seq(1000, 1, 2)...)
	if tr.Len() != 1000 {
		t.Errorf("Len = %d, want 1000", tr.Len())
	}
	if tr.Height() < 3 {
		t.Errorf("Height = %d, want ≥ 3 with 256B pages", tr.Height())
	}
	for _, k := range rand.New(rand.NewSource(1)).Perm(1000) {
		e, err := tr.Lookup(uint32(k*2+1), nil)
		if err != nil {
			t.Fatalf("Lookup(%d): %v", k*2+1, err)
		}
		if e.Start != uint32(k*2+1) {
			t.Fatalf("Lookup(%d) = %v", k*2+1, e)
		}
	}
	if _, err := tr.Lookup(4, nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("Lookup(missing) err = %v, want ErrNotFound", err)
	}
	got := collect(t, tr)
	if len(got) != 1000 {
		t.Fatalf("scan found %d, want 1000", len(got))
	}
	for i := range got {
		if got[i] != elem(uint32(i*2+1)) {
			t.Fatalf("scan[%d] = %v, want %v", i, got[i], elem(uint32(i*2+1)))
		}
	}
	if pool.PinnedCount() != 0 {
		t.Errorf("leaked pins: %d", pool.PinnedCount())
	}
}

func TestSeekGE(t *testing.T) {
	pool := newPool(t, 256, 16)
	tr := bulk(t, pool, seq(100, 5, 10)...)
	cases := []struct {
		seek uint32
		want uint32
		ok   bool
	}{
		{0, 5, true},
		{5, 5, true},
		{6, 15, true},
		{994, 995, true},
		{995, 995, true},
		{996, 0, false},
	}
	for _, tc := range cases {
		it, err := tr.SeekGE(tc.seek, nil)
		if err != nil {
			t.Fatalf("SeekGE(%d): %v", tc.seek, err)
		}
		e, ok := it.Next()
		it.Close()
		if ok != tc.ok || (ok && e.Start != tc.want) {
			t.Errorf("SeekGE(%d) = %v,%v want %d,%v", tc.seek, e.Start, ok, tc.want, tc.ok)
		}
	}
}

func TestPeekDoesNotConsume(t *testing.T) {
	pool := newPool(t, 256, 16)
	tr := bulk(t, pool, seq(50, 3, 3)...)
	it, err := tr.Scan(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	p1, ok1 := it.Peek()
	p2, ok2 := it.Peek()
	n, ok3 := it.Next()
	if !ok1 || !ok2 || !ok3 || p1 != p2 || p1 != n {
		t.Errorf("Peek/Next disagree: %v %v %v", p1, p2, n)
	}
}

func TestRange(t *testing.T) {
	pool := newPool(t, 256, 16)
	tr := bulk(t, pool, seq(200, 1, 1)...)
	got, err := tr.Range(50, 60, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 11 || got[0].Start != 50 || got[10].Start != 60 {
		t.Errorf("Range(50,60) returned %d elements", len(got))
	}
}

// TestRandomizedAgainstModel bulk-loads random key sets at random fill
// factors and checks random point and range probes against the key set.
func TestRandomizedAgainstModel(t *testing.T) {
	for _, pageSize := range []int{256, 512} {
		pool := newPool(t, pageSize, 64)
		rng := rand.New(rand.NewSource(int64(pageSize)))
		for round := 0; round < 20; round++ {
			model := make(map[uint32]bool)
			for i := rng.Intn(3000); i > 0; i-- {
				model[uint32(rng.Intn(6000)+1)] = true
			}
			keys := make([]uint32, 0, len(model))
			for k := range model {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			es := make([]xmldoc.Element, len(keys))
			for i, k := range keys {
				es[i] = elem(k)
			}
			tr, err := New(pool, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.BulkLoad(es, 0.3+0.7*rng.Float64()); err != nil {
				t.Fatalf("round %d: BulkLoad: %v", round, err)
			}
			verifyMatchesModel(t, tr, keys)
			for probe := 0; probe < 200; probe++ {
				k := uint32(rng.Intn(6002))
				_, err := tr.Lookup(k, nil)
				if model[k] != (err == nil) {
					t.Fatalf("round %d: Lookup(%d) err = %v, model has it: %v", round, k, err, model[k])
				}
				i := sort.Search(len(keys), func(i int) bool { return keys[i] >= k })
				it, err := tr.SeekGE(k, nil)
				if err != nil {
					t.Fatal(err)
				}
				e, ok := it.Next()
				it.Close()
				if ok != (i < len(keys)) || (ok && e.Start != keys[i]) {
					t.Fatalf("round %d: SeekGE(%d) = %d,%v", round, k, e.Start, ok)
				}
			}
		}
		if pool.PinnedCount() != 0 {
			t.Errorf("leaked pins: %d", pool.PinnedCount())
		}
	}
}

func verifyMatchesModel(t *testing.T, tr *Tree, want []uint32) {
	t.Helper()
	if tr.Len() != len(want) {
		t.Fatalf("Len = %d, model has %d", tr.Len(), len(want))
	}
	got := collect(t, tr)
	if len(got) != len(want) {
		t.Fatalf("scan found %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Start != want[i] {
			t.Fatalf("scan[%d] = %d, want %d", i, got[i].Start, want[i])
		}
	}
}

func TestBulkLoadErrors(t *testing.T) {
	pool := newPool(t, 256, 16)
	tr, _ := New(pool, 1)
	unsorted := []xmldoc.Element{elem(5), elem(1)}
	if err := tr.BulkLoad(unsorted, 1.0); err == nil {
		t.Error("BulkLoad accepted unsorted input")
	}
	dup, _ := New(pool, 1)
	if err := dup.BulkLoad([]xmldoc.Element{elem(5), elem(5)}, 1.0); err == nil {
		t.Error("BulkLoad accepted a duplicate start")
	}
	tr2 := bulk(t, pool, 1)
	if err := tr2.BulkLoad([]xmldoc.Element{elem(9)}, 1.0); err == nil {
		t.Error("BulkLoad into non-empty tree accepted")
	}
	tr3, _ := New(pool, 1)
	if err := tr3.BulkLoad(nil, 1.0); err != nil {
		t.Errorf("BulkLoad(nil): %v", err)
	}
}

func TestBulkLoadPartialFill(t *testing.T) {
	pool := newPool(t, 512, 64)
	keys := seq(1000, 1, 1)
	full := bulk(t, pool, keys...)
	half, _ := New(pool, 1)
	es := make([]xmldoc.Element, len(keys))
	for i, k := range keys {
		es[i] = elem(k)
	}
	if err := half.BulkLoad(es, 0.5); err != nil {
		t.Fatal(err)
	}
	got := collect(t, half)
	if len(got) != 1000 {
		t.Fatalf("half-fill scan found %d", len(got))
	}
	if half.Height() < full.Height() {
		t.Errorf("half-fill height %d below packed height %d", half.Height(), full.Height())
	}
}

func TestOpenReattaches(t *testing.T) {
	pool := newPool(t, 256, 32)
	tr, _ := New(pool, 42)
	es := make([]xmldoc.Element, 100)
	for i := range es {
		es[i] = elem(uint32(i + 1))
		es[i].DocID = 42
	}
	if err := tr.BulkLoad(es, 1.0); err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	tr2, err := Open(pool, tr.Meta())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if tr2.Len() != 100 || tr2.DocID() != 42 || tr2.Height() != tr.Height() {
		t.Errorf("reopened tree: len=%d docID=%d h=%d", tr2.Len(), tr2.DocID(), tr2.Height())
	}
	if e, err := tr2.Lookup(50, nil); err != nil || e.DocID != 42 {
		t.Errorf("Lookup after Open: %v, %v", e, err)
	}
}

func TestCountersAttributeCosts(t *testing.T) {
	pool := newPool(t, 256, 64)
	tr := bulk(t, pool, seq(1000, 1, 1)...)

	var c metrics.Counters
	it, err := tr.SeekGE(500, &c)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, ok := it.Next(); !ok {
			t.Fatal("unexpected end")
		}
	}
	it.Close()
	if c.ElementsScanned != 10 {
		t.Errorf("ElementsScanned = %d, want 10", c.ElementsScanned)
	}
	if c.IndexNodeReads == 0 {
		t.Error("IndexNodeReads = 0, want > 0 for SeekGE descent")
	}
}
