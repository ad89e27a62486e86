package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"xrtree"
	"xrtree/internal/server"
	"xrtree/internal/workload"
	"xrtree/internal/xmldoc"
)

const (
	// serveRate is the offered load in requests per second, about a fifth
	// of the 570-640 requests per second two closed-loop connections reach
	// on the two-core machine the benchmark was sized on. A slow fsync
	// holds one of the two connections; at 40% or 65% of capacity that
	// pushed the other into queueing whenever the shared machine slowed,
	// and run-to-run spread multiplied.
	serveRate = 120.0
	// serveConns is the number of loopback connections.
	serveConns = 2
	// insertEvery makes every insertEvery-th request an insert.
	insertEvery = 3
	// insertBatch is the number of new leaf elements per insert.
	insertBatch = 2
	// servePool holds the served sets' pages; reads are hot.
	servePool = 1024
	// serveStop bounds how long a phase may run past its schedule before
	// the remaining requests are skipped and counted as failed.
	serveStop = 10 * time.Second
)

// serveInputs is the generated input of the serving phase.
type serveInputs struct {
	anc, desc string           // the served sets' tags, also their names
	A, D      []xmldoc.Element // ancestors; descendants thinned to low selectivity
	parts     []xmldoc.Element // the root's children, for referenceJoin
	basePairs int64
	slots     []slot // free leaf positions, in the order inserts take them
	rng       *rand.Rand
}

// slot is a free position for a new descendant leaf: right after a
// descendant that joins, inside the same ancestors.
type slot struct {
	leaf  xmldoc.Element
	pairs int64 // employees containing the leaf
}

// newServeInputs thins the ancestors of doc to selectivity sel: low, where
// XR-stack skips most of both inputs.
func newServeInputs(doc *xmldoc.Document, anc, desc string, sel float64, seed int64) *serveInputs {
	sets := workload.VaryAncestorSelectivity(doc.ElementsByTag(anc), doc.ElementsByTag(desc), sel, 0.99, seed)
	in := &serveInputs{
		anc: anc, desc: desc,
		A: sets.A, D: sets.D,
		parts:     topLevel(doc),
		basePairs: int64(workload.Measure(sets).Pairs),
		rng:       rand.New(rand.NewSource(subSeed(seed, 6, 0))),
	}
	// The next position after a descendant's end is serveGap further on,
	// so (end+1+2k, end+2+2k) for k < (serveGap-1)/2 is free, crosses no
	// region boundary and has the descendant's ancestors. A leaf placed
	// there follows a descendant XR-stack has just joined, with the
	// ancestors still on its stack: it adds pairs, but no FindAncestors
	// probe, so the served join's cost stays flat while inserts accumulate.
	ref := uint32(doc.NumElements())
	for _, d := range sets.D {
		var anc int64
		for _, a := range sets.A {
			if a.Start < d.Start && d.End < a.End {
				anc++
			}
		}
		if anc == 0 || d.DocID != doc.DocID {
			continue
		}
		for k := uint32(0); k < (serveGap-1)/2; k++ {
			ref++
			s := d.End + 1 + 2*k
			in.slots = append(in.slots, slot{xmldoc.Element{DocID: d.DocID, Start: s, End: s + 1, Level: d.Level, Ref: ref}, anc})
		}
	}
	in.rng.Shuffle(len(in.slots), func(i, j int) { in.slots[i], in.slots[j] = in.slots[j], in.slots[i] })
	return in
}

// request is one scheduled request of the serving mix.
type request struct {
	insert []xmldoc.Element // nil for a join
	body   []byte
	pairs  int64 // pairs the insert adds
}

// schedule generates n requests: every insertEvery-th an insert of
// insertBatch new leaves, the rest joins.
func (in *serveInputs) schedule(n int) ([]request, error) {
	reqs := make([]request, n)
	for i := range reqs {
		if i%insertEvery != insertEvery-1 {
			continue
		}
		if len(in.slots) < insertBatch {
			return nil, fmt.Errorf("out of free leaf slots after %d requests", i)
		}
		r := &reqs[i]
		for _, sl := range in.slots[:insertBatch] {
			r.insert = append(r.insert, sl.leaf)
			r.pairs += sl.pairs
		}
		in.slots = in.slots[insertBatch:]
		body, err := json.Marshal(map[string]any{"elements": r.insert})
		if err != nil {
			return nil, err
		}
		r.body = body
	}
	return reqs, nil
}

// serveMixed is the set-up of the serving phase: a WAL-backed store with
// the two sets catalogued, served by an in-process server on a loopback
// listener.
type serveMixed struct {
	store                *xrtree.Store
	path                 string
	srv                  *server.Server
	served               chan error
	base                 string
	joinPath, insertPath string
	elements             int
	clients              []*http.Client
}

func buildServeMixed(dir string, in *serveInputs) (*serveMixed, error) {
	path := filepath.Join(dir, "serve.db")
	st, err := xrtree.CreateStore(path, xrtree.StoreOptions{BufferPages: servePool, WAL: true})
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*serveMixed, error) {
		st.Close()
		return nil, err
	}
	for _, s := range []struct {
		name string
		es   []xmldoc.Element
	}{{in.anc, in.A}, {in.desc, in.D}} {
		set, err := st.IndexElements(s.es, xrtree.IndexOptions{})
		if err != nil {
			return fail(fmt.Errorf("index %s: %w", s.name, err))
		}
		if err := st.SaveSet(s.name, set); err != nil {
			return fail(fmt.Errorf("save %s: %w", s.name, err))
		}
	}
	srv := server.New(server.Config{})
	if err := srv.AddStore("bench", st); err != nil {
		return fail(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	s := &serveMixed{store: st, path: path, srv: srv, served: make(chan error, 1),
		base:       "http://" + ln.Addr().String(),
		joinPath:   fmt.Sprintf("/api/v1/join?backend=bench&anc=%s&desc=%s&alg=xr&limit=1", in.anc, in.desc),
		insertPath: "/api/v1/insert?backend=bench&set=" + in.desc,
		elements:   len(in.A) + len(in.D)}
	go func() { s.served <- srv.Serve(ln) }()
	for c := 0; c < serveConns; c++ {
		s.clients = append(s.clients, &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}})
	}
	return s, nil
}

// close stops the server, waits for it to exit, and closes the store.
func (s *serveMixed) close() error {
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := s.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// serveRun is the outcome of one serving phase.
type serveRun struct {
	attempted, failed int
	wrong             []string
	readMS, writeMS   []float64 // from due time
	lateMS            []float64
	insertedElems     int64
	acked             []xmldoc.Element // acknowledged inserts
	ackedPairs        int64            // pairs they add to the served join

	// Traced only.
	overheadMS []float64 // client send-to-receive minus server elapsed_ms, joins
	insertMS   []float64 // server elapsed_ms, inserts
	recs       []*recorder
}

type joinReply struct {
	Pairs int64 `json:"pairs"`
	Stats struct {
		ElapsedMS float64 `json:"elapsed_ms"`
	} `json:"stats"`
}

type insertReply struct {
	Inserted  int     `json:"inserted"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// run offers reqs at serveRate over serveConns connections. It checks
// every response: status 200, and each join's pair count between the
// counts implied by the inserts acknowledged before it was sent and the
// inserts sent before its response arrived. (An insert can be applied and
// seen by a join before its own acknowledgement arrives, so the upper
// bound counts sent inserts, not acknowledged ones.)
func (s *serveMixed) run(in *serveInputs, reqs []request, dues []time.Duration, epoch time.Time, traced bool) *serveRun {
	var acked, issued atomic.Int64
	base := in.basePairs
	type conn struct {
		wrong              []string
		overhead, insertMS []float64
		rec                *recorder
	}
	conns := make([]*conn, serveConns)
	for c := range conns {
		conns[c] = &conn{}
		if traced {
			conns[c].rec = newRecorder(epoch, int64(c+1)<<40)
		}
	}
	isAcked := make([]bool, len(reqs))
	// post sends one request and decodes a 200 reply into v.
	post := func(cl *http.Client, method, path string, body []byte, v any) error {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, s.base+path, rd)
		if err != nil {
			return err
		}
		resp, err := cl.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body)
			return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
		}
		return json.NewDecoder(resp.Body).Decode(v)
	}
	start := time.Now()
	out := openLoop(start, dues, serveConns, dues[len(dues)-1]+serveStop, func(c, i int) bool {
		cn, cl, r := conns[c], s.clients[c], &reqs[i]
		var t0 int64
		if cn.rec != nil {
			t0 = cn.rec.now()
		}
		if r.insert != nil {
			issued.Add(r.pairs)
			var rep insertReply
			if err := post(cl, http.MethodPost, s.insertPath, r.body, &rep); err != nil {
				cn.wrong = append(cn.wrong, fmt.Sprintf("insert %d: %v", i, err))
				return false
			}
			if rep.Inserted != len(r.insert) {
				cn.wrong = append(cn.wrong, fmt.Sprintf("insert %d: %d of %d elements inserted", i, rep.Inserted, len(r.insert)))
				return false
			}
			acked.Add(r.pairs)
			isAcked[i] = true
			if cn.rec != nil {
				t1 := cn.rec.now()
				id := cn.rec.add("http.POST insert", 0, 0, t0, t1)
				cn.rec.add("server.insert", id, id, t1-int64(rep.ElapsedMS*1e6), t1)
				cn.insertMS = append(cn.insertMS, rep.ElapsedMS)
			}
			return true
		}
		lo := base + acked.Load()
		var rep joinReply
		if err := post(cl, http.MethodGet, s.joinPath, nil, &rep); err != nil {
			cn.wrong = append(cn.wrong, fmt.Sprintf("join %d: %v", i, err))
			return false
		}
		if hi := base + issued.Load(); rep.Pairs < lo || rep.Pairs > hi {
			cn.wrong = append(cn.wrong, fmt.Sprintf("join %d: %d pairs, outside [%d, %d]", i, rep.Pairs, lo, hi))
			return false
		}
		if cn.rec != nil {
			t1 := cn.rec.now()
			id := cn.rec.add("http.GET join", 0, 0, t0, t1)
			cn.rec.add("server.join", id, id, t1-int64(rep.Stats.ElapsedMS*1e6), t1)
			cn.overhead = append(cn.overhead, ms(time.Duration(t1-t0))-rep.Stats.ElapsedMS)
		}
		return true
	})
	r := &serveRun{attempted: len(out), lateMS: lateness(out)}
	for i, o := range out {
		if !o.ok {
			r.failed++
			continue
		}
		if reqs[i].insert != nil {
			r.writeMS = append(r.writeMS, ms(o.latency))
		} else {
			r.readMS = append(r.readMS, ms(o.latency))
		}
	}
	for i, ok := range isAcked {
		if ok {
			r.acked = append(r.acked, reqs[i].insert...)
			r.ackedPairs += reqs[i].pairs
			r.insertedElems += int64(len(reqs[i].insert))
		}
	}
	for _, cn := range conns {
		r.wrong = append(r.wrong, cn.wrong...)
		r.overheadMS = append(r.overheadMS, cn.overhead...)
		r.insertMS = append(r.insertMS, cn.insertMS...)
		if cn.rec != nil {
			r.recs = append(r.recs, cn.rec)
		}
	}
	return r
}

// verifyFinal is the after-load oracle: an XR-stack join over freshly
// opened sets must equal the reference join over the corpus plus every
// acknowledged insert. Only XR-stack is checked because inserts update the
// XR-trees alone.
func (s *serveMixed) verifyFinal(in *serveInputs, acked []xmldoc.Element) error {
	a, err := s.store.OpenSet(in.anc)
	if err != nil {
		return err
	}
	d, err := s.store.OpenSet(in.desc)
	if err != nil {
		return err
	}
	got, err := xrtree.JoinPairs(xrtree.AlgXRStack, xrtree.AncestorDescendant, a, d, nil)
	if err != nil {
		return err
	}
	ds := append(append([]xmldoc.Element(nil), in.D...), acked...)
	sort.Slice(ds, func(i, j int) bool { return ds[i].Start < ds[j].Start })
	want := referenceJoin(xrtree.AncestorDescendant, in.A, ds, in.parts)
	if !samePairs(got, want) {
		return fmt.Errorf("final XR-stack join has %d pairs, reference over corpus plus %d acknowledged inserts %d", len(got), len(acked), len(want))
	}
	return nil
}

// absorb adds o's requests to r, which holds earlier requests.
func (r *serveRun) absorb(o *serveRun) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.readMS = append(r.readMS, o.readMS...)
	r.writeMS = append(r.writeMS, o.writeMS...)
	r.lateMS = append(r.lateMS, o.lateMS...)
	r.insertedElems += o.insertedElems
	r.acked = append(r.acked, o.acked...)
	r.ackedPairs += o.ackedPairs
	r.overheadMS = append(r.overheadMS, o.overheadMS...)
	r.insertMS = append(r.insertMS, o.insertMS...)
}
