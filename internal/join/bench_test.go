package join

import (
	"math/rand"
	"testing"

	"xrtree/internal/btree"
	"xrtree/internal/bufferpool"
	"xrtree/internal/core"
	"xrtree/internal/metrics"
	"xrtree/internal/pagefile"
	"xrtree/internal/xmldoc"
)

// benchSets returns the benchmark document's ancestor and descendant sets
// and the small pool to index them in, so index descents, stab-list
// probes, and leaf-chain scans all pay real buffer replacement.
func benchSets(tb testing.TB) (pool *bufferpool.Pool, as, ds []xmldoc.Element) {
	rng := rand.New(rand.NewSource(7))
	as, ds = genDoc(rng, 2000, 10000, 8)
	return newPool(tb, pagefile.DefaultPageSize, 100), as, ds
}

// benchXR indexes the benchmark sets in XR-trees.
func benchXR(tb testing.TB) (a, d XRTreeSource) {
	pool, as, ds := benchSets(tb)
	build := func(es []xmldoc.Element) XRTreeSource {
		t, err := core.New(pool, es[0].DocID, core.Options{})
		if err != nil {
			tb.Fatal(err)
		}
		if err := t.BulkLoad(es, 1.0); err != nil {
			tb.Fatal(err)
		}
		return XRTreeSource{T: t}
	}
	return build(as), build(ds)
}

// benchBTree indexes the benchmark sets in B+-trees.
func benchBTree(tb testing.TB) (a, d BTreeSource) {
	pool, as, ds := benchSets(tb)
	build := func(es []xmldoc.Element) BTreeSource {
		t, err := btree.New(pool, es[0].DocID)
		if err != nil {
			tb.Fatal(err)
		}
		if err := t.BulkLoad(es, 1.0); err != nil {
			tb.Fatal(err)
		}
		return BTreeSource{T: t}
	}
	return build(as), build(ds)
}

// benchJoin runs join b.N times, failing on an error or an empty result.
func benchJoin(b *testing.B, join func(c *metrics.Counters) error) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var c metrics.Counters
		if err := join(&c); err != nil {
			b.Fatal(err)
		}
		if c.OutputPairs == 0 {
			b.Fatal("join produced no pairs")
		}
	}
}

// BenchmarkXRStackJoin measures a full XR-stack ancestor/descendant join
// over two XR-trees through a small pool.
func BenchmarkXRStackJoin(b *testing.B) {
	xa, xd := benchXR(b)
	benchJoin(b, func(c *metrics.Counters) error {
		return XRStack(AncestorDescendant, xa, xd, nil2(), c)
	})
}

// BenchmarkBPlusJoin measures Anc_Des_B+ over B+-trees on the same sets.
func BenchmarkBPlusJoin(b *testing.B) {
	ba, bd := benchBTree(b)
	benchJoin(b, func(c *metrics.Counters) error {
		return BPlus(AncestorDescendant, ba, bd, nil2(), c)
	})
}
