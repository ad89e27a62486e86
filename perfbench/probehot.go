package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"xrtree"
	"xrtree/internal/core"
	"xrtree/internal/xmldoc"
)

const (
	// probeClients is the closed-loop client count, one per core of the
	// two-core machine the benchmark was sized on.
	probeClients = 2
	// probePool is larger than the probed tree, so after the warm-up scan
	// no probe misses the pool.
	probePool = 4096
	// oracleProbes is the size of the fixed probe sample checked against
	// the in-memory reference.
	oracleProbes = 2000
)

// probe is one §5 basic operation: FindAncestors(sd) when anc is set,
// else FindDescendants(sa, ea).
type probe struct {
	anc        bool
	sd, sa, ea uint32
}

// probeHot is the set-up of the probe phase: one XR-tree over both joined
// tags of the corpus in a pool that holds all of it.
type probeHot struct {
	store   *xrtree.Store
	path    string
	tree    *core.Tree
	set     []xmldoc.Element // the indexed elements, start-sorted
	regions []xmldoc.Element // regions FindDescendants probes
	targets []xmldoc.Element // regions whose starts FindAncestors probes
}

func buildProbeHot(dir string, set, regions, targets []xmldoc.Element) (*probeHot, error) {
	path := filepath.Join(dir, "probe.db")
	st, err := xrtree.CreateStore(path, xrtree.StoreOptions{BufferPages: probePool})
	if err != nil {
		return nil, err
	}
	es, err := st.IndexElements(set, xrtree.IndexOptions{SkipList: true, SkipBTree: true})
	if err != nil {
		st.Close()
		return nil, err
	}
	tree, err := es.XRTree()
	if err != nil {
		st.Close()
		return nil, err
	}
	// Warm the pool: a FindAncestors probe at every element's start visits
	// every leaf and every stab list on the way down.
	h := &probeHot{store: st, path: path, tree: tree, set: set, regions: regions, targets: targets}
	for _, e := range set {
		if _, err := h.do(probe{anc: true, sd: e.Start}, nil); err != nil {
			st.Close()
			return nil, err
		}
	}
	return h, nil
}

func (h *probeHot) close() error { return h.store.Close() }

func (h *probeHot) next(rng *rand.Rand) probe {
	if rng.Intn(2) == 0 {
		return probe{anc: true, sd: h.targets[rng.Intn(len(h.targets))].Start}
	}
	e := h.regions[rng.Intn(len(h.regions))]
	return probe{sa: e.Start, ea: e.End}
}

func (h *probeHot) do(p probe, st *xrtree.Stats) ([]xmldoc.Element, error) {
	if p.anc {
		return h.tree.FindAncestors(p.sd, 0, st)
	}
	return h.tree.FindDescendants(p.sa, p.ea, st)
}

// referenceProbe answers a probe by a scan of the start-sorted elements.
func referenceProbe(set []xmldoc.Element, p probe) []xmldoc.Element {
	var out []xmldoc.Element
	for _, e := range set {
		if p.anc && e.Start < p.sd && p.sd < e.End || !p.anc && p.sa < e.Start && e.End < p.ea {
			out = append(out, e)
		}
	}
	return out
}

// verify checks a fixed, seed-derived sample of probes against the
// reference.
func (h *probeHot) verify(seed int64) error {
	rng := rand.New(rand.NewSource(subSeed(seed, 4, 0)))
	for i := 0; i < oracleProbes; i++ {
		p := h.next(rng)
		got, err := h.do(p, nil)
		if err != nil {
			return fmt.Errorf("probe %+v: %w", p, err)
		}
		want := referenceProbe(h.set, p)
		sort.Slice(got, func(i, j int) bool { return got[i].Start < got[j].Start })
		if len(got) != len(want) {
			return fmt.Errorf("probe %+v: %d elements, reference %d", p, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				return fmt.Errorf("probe %+v: element %d is %v, reference %v", p, k, got[k], want[k])
			}
		}
	}
	return nil
}

// probeRun is the outcome of the probe phase.
type probeRun struct {
	probes, failed int64
	latUS          []float64 // every probe
	elapsed        time.Duration
	nodeReads      int64
	hits, misses   int64
	ancUS, descUS  []float64 // traced only: core span durations
	recs           []*recorder
}

// run drives probeClients closed-loop clients for budget. Each client draws
// its probes from its own seeded generator.
func (h *probeHot) run(seed int64, budget time.Duration, epoch time.Time, traced bool) *probeRun {
	type client struct {
		n             int64
		latUS         []float64
		ancUS, descUS []float64
		st            xrtree.Stats
		failed        int64
		rec           *recorder
	}
	cs := make([]*client, probeClients)
	pool0 := h.store.PoolStats()
	start := time.Now()
	startNS := int64(start.Sub(epoch))
	var wg sync.WaitGroup
	for g := range cs {
		c := &client{}
		if traced {
			c.rec = newRecorder(epoch, int64(g+1)<<40)
		}
		cs[g] = c
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(subSeed(seed, 5, g)))
			for {
				p := h.next(rng)
				var d, at time.Duration // latency, and end time since start
				var err error
				if c.rec != nil {
					t0 := c.rec.now()
					_, err = h.do(p, &c.st)
					t1 := c.rec.now()
					d, at = time.Duration(t1-t0), time.Duration(t1-startNS)
					if p.anc {
						c.rec.add("core.FindAncestors", 0, 0, t0, t1)
						c.ancUS = append(c.ancUS, us(d))
					} else {
						c.rec.add("core.FindDescendants", 0, 0, t0, t1)
						c.descUS = append(c.descUS, us(d))
					}
				} else {
					t0 := time.Now()
					_, err = h.do(p, &c.st)
					t1 := time.Now()
					d, at = t1.Sub(t0), t1.Sub(start)
				}
				if err != nil {
					c.failed++
				}
				c.n++
				c.latUS = append(c.latUS, us(d))
				if at >= budget {
					return
				}
			}
		}(g)
	}
	wg.Wait()
	r := &probeRun{elapsed: time.Since(start)}
	for _, c := range cs {
		r.probes += c.n
		r.failed += c.failed
		r.latUS = append(r.latUS, c.latUS...)
		r.nodeReads += c.st.IndexNodeReads
		r.ancUS = append(r.ancUS, c.ancUS...)
		r.descUS = append(r.descUS, c.descUS...)
		if c.rec != nil {
			r.recs = append(r.recs, c.rec)
		}
	}
	pool1 := h.store.PoolStats()
	r.hits, r.misses = pool1.BufferHits-pool0.BufferHits, pool1.BufferMisses-pool0.BufferMisses
	return r
}

// absorb adds o's probes to r.
func (r *probeRun) absorb(o *probeRun) {
	r.probes += o.probes
	r.failed += o.failed
	r.latUS = append(r.latUS, o.latUS...)
	r.elapsed += o.elapsed
	r.nodeReads += o.nodeReads
	r.hits += o.hits
	r.misses += o.misses
	r.ancUS = append(r.ancUS, o.ancUS...)
	r.descUS = append(r.descUS, o.descUS...)
}
