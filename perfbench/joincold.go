package main

import (
	"fmt"
	"path/filepath"
	rtmetrics "runtime/metrics"
	"sort"
	"time"

	"xrtree"
	"xrtree/internal/datagen"
	"xrtree/internal/join"
	"xrtree/internal/workload"
	"xrtree/internal/xmldoc"
)

// joinAlgs is the order each point runs in: XR-stack (the algorithm the
// server runs by default), then the B+ and no-index baselines.
var joinAlgs = []xrtree.Algorithm{xrtree.AlgXRStack, xrtree.AlgBPlus, xrtree.AlgNoIndex}

// joinPool is the paper's buffer-pool size in pages (§6.1).
const joinPool = 100

// joinPoint is one structural join of the mix: a §6 selectivity point on
// one corpus.
type joinPoint struct {
	name  string
	sets  workload.Sets
	pairs int              // expected pair count (workload.Measure)
	parts []xmldoc.Element // the root's children, for referenceJoin

	a, d *xrtree.ElementSet
}

// joinPoints derives the mix: the ancestor-selectivity sweep (Table 2)
// and the descendant-selectivity sweep (Table 3) on both corpora.
func joinPoints(corpora []datagen.Corpus, seed int64) []joinPoint {
	var pts []joinPoint
	for _, c := range corpora {
		A := c.Doc.ElementsByTag(c.AncestorTag)
		D := c.Doc.ElementsByTag(c.DescendantTag)
		parts := topLevel(c.Doc)
		for _, pct := range workload.SelectivitySweep {
			for _, axis := range []string{"anc", "desc"} {
				var s workload.Sets
				if axis == "anc" {
					s = workload.VaryAncestorSelectivity(A, D, pct, 0.99, seed)
				} else {
					s = workload.VaryDescendantSelectivity(A, D, pct, 0.99, seed)
				}
				pts = append(pts, joinPoint{
					name:  fmt.Sprintf("%s %s %.0f%%", c.Name, axis, pct*100),
					sets:  s,
					pairs: workload.Measure(s).Pairs,
					parts: parts,
				})
			}
		}
	}
	return pts
}

// joinCold is the set-up of the join phase: one file-backed store with
// a 100-page pool holding every point's element list, B+-tree and XR-tree.
type joinCold struct {
	store    *xrtree.Store
	path     string
	points   []joinPoint
	elements int
}

func buildJoinCold(dir string, pts []joinPoint) (*joinCold, error) {
	path := filepath.Join(dir, "join.db")
	st, err := xrtree.CreateStore(path, xrtree.StoreOptions{BufferPages: joinPool})
	if err != nil {
		return nil, err
	}
	j := &joinCold{store: st, path: path, points: append([]joinPoint(nil), pts...)}
	for i := range j.points {
		p := &j.points[i]
		if p.a, err = st.IndexElements(p.sets.A, xrtree.IndexOptions{}); err != nil {
			st.Close()
			return nil, fmt.Errorf("%s: index A: %w", p.name, err)
		}
		if p.d, err = st.IndexElements(p.sets.D, xrtree.IndexOptions{}); err != nil {
			st.Close()
			return nil, fmt.Errorf("%s: index D: %w", p.name, err)
		}
		j.elements += len(p.sets.A) + len(p.sets.D)
	}
	return j, nil
}

func (j *joinCold) close() error { return j.store.Close() }

// topLevel returns the root's children in document order. No join pair
// other than one with the root crosses two of them.
func topLevel(doc *xmldoc.Document) []xmldoc.Element {
	var out []xmldoc.Element
	for _, e := range doc.AllElements() {
		if e.Level == 2 {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// referenceJoin returns the pairs of join.Reference, in another order. The
// brute-force reference is quadratic, so it runs part by part: a pair
// whose ancestor lies inside a part has its descendant in the same part.
// Ancestors outside every part are joined with all descendants.
func referenceJoin(mode xrtree.Mode, as, ds, parts []xmldoc.Element) []join.Pair {
	bounds := func(es []xmldoc.Element, p xmldoc.Element) (int, int) {
		lo := sort.Search(len(es), func(i int) bool { return es[i].Start >= p.Start })
		hi := sort.Search(len(es), func(i int) bool { return es[i].Start > p.End })
		return lo, hi
	}
	var out []join.Pair
	var restA []xmldoc.Element
	next := 0
	for _, p := range parts {
		alo, ahi := bounds(as, p)
		dlo, dhi := bounds(ds, p)
		restA = append(restA, as[next:alo]...)
		next = ahi
		out = append(out, join.Reference(mode, as[alo:ahi], ds[dlo:dhi])...)
	}
	restA = append(restA, as[next:]...)
	return append(out, join.Reference(mode, restA, ds)...)
}

// samePairs reports whether two pair lists hold the same pairs, in any
// order. It sorts both.
func samePairs(x, y []join.Pair) bool {
	if len(x) != len(y) {
		return false
	}
	less := func(ps []join.Pair) func(i, j int) bool {
		return func(i, j int) bool {
			if ps[i].D.Start != ps[j].D.Start {
				return ps[i].D.Start < ps[j].D.Start
			}
			return ps[i].A.Start < ps[j].A.Start
		}
	}
	sort.Slice(x, less(x))
	sort.Slice(y, less(y))
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// verify is the set-up oracle: every point, under every algorithm, must
// produce exactly the pairs of the reference join.
func (j *joinCold) verify() error {
	for _, p := range j.points {
		want := referenceJoin(xrtree.AncestorDescendant, p.sets.A, p.sets.D, p.parts)
		if len(want) != p.pairs {
			return fmt.Errorf("%s: reference has %d pairs, workload.Measure %d", p.name, len(want), p.pairs)
		}
		for _, alg := range joinAlgs {
			got, err := xrtree.JoinPairs(alg, xrtree.AncestorDescendant, p.a, p.d, nil)
			if err != nil {
				return fmt.Errorf("%s %s: %w", p.name, alg, err)
			}
			if !samePairs(got, want) {
				return fmt.Errorf("%s %s: %d pairs differ from the reference's %d", p.name, alg, len(got), len(want))
			}
		}
	}
	return j.store.DropCache()
}

// joinCounts is what one cold join did, as counted by each layer. With one
// client, a fixed pool and a fixed order it must repeat exactly.
type joinCounts struct {
	Pairs, Scanned, NodeReads, LeafReads, StabReads int64
	Hits, Misses, Evictions, Reads, ReadCalls       int64
}

// joinRun is the outcome of the join phase.
type joinRun struct {
	attempted, failed int
	wrong             []string // oracle or repeat-guard failures
	rounds            int
	wall              map[xrtree.Algorithm][]time.Duration
	counts            []joinCounts // first round, in mix order (the repeat fingerprint)
	xr                joinCounts   // sums over every XR-stack join
	xrJoins           int

	// Traced only, per XR-stack join.
	selfMS, probeMS []float64
	ancProbes       int64
	allocBytes      uint64
}

// run executes whole rounds of the mix while another round of the last
// one's length fits in budget (at least one round): before every join the
// pool is emptied, so each join starts cold. With rec set, XR-stack joins run through the timing wrapper.
func (j *joinCold) run(budget time.Duration, rec *recorder) (*joinRun, error) {
	r := &joinRun{wall: map[xrtree.Algorithm][]time.Duration{}}
	jt := &joinTrace{rec: rec}
	allocs := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	start := time.Now()
	var last time.Duration // the previous round's length
	for round := 0; round == 0 || time.Since(start)+last <= budget; round++ {
		roundStart := time.Now()
		k := 0
		for _, p := range j.points {
			for _, alg := range joinAlgs {
				if err := j.store.DropCache(); err != nil {
					return nil, err
				}
				pool0, file0 := j.store.PoolStats(), j.store.FileStats()
				var st xrtree.Stats
				var pairs int64
				emit := func(xmldoc.Element, xmldoc.Element) { pairs++ }
				var err error
				var d time.Duration
				traced := rec != nil && alg == xrtree.AlgXRStack
				if traced {
					a, _ := p.a.XRTree()
					dd, _ := p.d.XRTree()
					jt.begin()
					rtmetrics.Read(allocs)
					alloc0 := allocs[0].Value.Uint64()
					t0 := rec.now()
					err = join.XRStack(xrtree.AncestorDescendant,
						timedXR{join.XRTreeSource{T: a}, jt}, timedXR{join.XRTreeSource{T: dd}, jt}, emit, &st)
					t1 := rec.now()
					rtmetrics.Read(allocs)
					r.allocBytes += allocs[0].Value.Uint64() - alloc0
					rec.addWithID(jt.root, "join.XRStack", 0, 0, t0, t1)
					d = time.Duration(t1 - t0)
					r.selfMS = append(r.selfMS, float64(selfTime(interval{t0, t1}, jt.children))/1e6)
					r.probeMS = append(r.probeMS, float64(jt.coveredNS())/1e6)
					r.ancProbes += jt.ancProbes
				} else {
					t0 := time.Now()
					err = xrtree.Join(alg, xrtree.AncestorDescendant, p.a, p.d, emit, &st)
					d = time.Since(t0)
					if rec != nil {
						end := rec.now()
						rec.add("join."+alg.String(), 0, 0, end-int64(d), end)
					}
				}
				r.attempted++
				if err != nil {
					r.failed++
					r.wrong = append(r.wrong, fmt.Sprintf("%s %s: %v", p.name, alg, err))
					k++
					continue
				}
				pool1, file1 := j.store.PoolStats(), j.store.FileStats()
				c := joinCounts{
					Pairs: pairs, Scanned: st.ElementsScanned, NodeReads: st.IndexNodeReads,
					LeafReads: st.LeafReads, StabReads: st.StabPageReads,
					Hits: pool1.BufferHits - pool0.BufferHits, Misses: pool1.BufferMisses - pool0.BufferMisses,
					Evictions: pool1.PageEvictions - pool0.PageEvictions,
					Reads:     file1.PhysicalReads - file0.PhysicalReads, ReadCalls: file1.ReadCalls - file0.ReadCalls,
				}
				if pairs != int64(p.pairs) {
					r.wrong = append(r.wrong, fmt.Sprintf("%s %s: %d pairs, want %d", p.name, alg, pairs, p.pairs))
				}
				if round == 0 {
					r.counts = append(r.counts, c)
				} else if c != r.counts[k] {
					r.wrong = append(r.wrong, fmt.Sprintf("%s %s: counts drifted in round %d: %+v, first round %+v", p.name, alg, round, c, r.counts[k]))
				}
				r.wall[alg] = append(r.wall[alg], d)
				if alg == xrtree.AlgXRStack {
					r.xrJoins++
					r.xr.add(c)
				}
				k++
			}
		}
		r.rounds++
		last = time.Since(roundStart)
	}
	return r, nil
}

// absorb adds o's joins to r, which holds earlier whole rounds of the same
// mix. It reports whether o's per-join counts equal r's first round.
func (r *joinRun) absorb(o *joinRun) bool {
	r.attempted += o.attempted
	r.failed += o.failed
	r.rounds += o.rounds
	for alg, ds := range o.wall {
		r.wall[alg] = append(r.wall[alg], ds...)
	}
	same := true
	if r.counts == nil {
		r.counts = o.counts
	} else {
		same = equalCounts(r.counts, o.counts)
	}
	r.xr.add(o.xr)
	r.xrJoins += o.xrJoins
	r.selfMS = append(r.selfMS, o.selfMS...)
	r.probeMS = append(r.probeMS, o.probeMS...)
	r.ancProbes += o.ancProbes
	r.allocBytes += o.allocBytes
	return same
}

func (c *joinCounts) add(o joinCounts) {
	c.Pairs += o.Pairs
	c.Scanned += o.Scanned
	c.NodeReads += o.NodeReads
	c.LeafReads += o.LeafReads
	c.StabReads += o.StabReads
	c.Hits += o.Hits
	c.Misses += o.Misses
	c.Evictions += o.Evictions
	c.Reads += o.Reads
	c.ReadCalls += o.ReadCalls
}
