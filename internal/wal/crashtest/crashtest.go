package crashtest

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"

	"xrtree"
	"xrtree/internal/core"
	"xrtree/internal/join"
	"xrtree/internal/xmldoc"
)

// Config parameterizes one crash run.
type Config struct {
	// Seed drives the workload and the document shape deterministically.
	Seed int64
	// Ops is the number of rounds of the mutation stream; each round is a
	// single-element insert or delete followed by a multi-element insert
	// batch, two transactions.
	Ops int
	// KillAfter is the log-byte budget before the injected crash; ≤ 0
	// runs the workload to completion and closes cleanly instead (the
	// probe run, which also measures the log size for picking kill
	// points).
	KillAfter int64
	// PageSize, BufferPages size the store; small defaults keep splits,
	// merges, segment rotation and checkpoints all hot within a short
	// workload.
	PageSize    int
	BufferPages int
}

func (cfg *Config) defaults() {
	if cfg.Ops <= 0 {
		cfg.Ops = 200
	}
	if cfg.PageSize <= 0 {
		cfg.PageSize = 512
	}
	if cfg.BufferPages <= 0 {
		cfg.BufferPages = 64
	}
}

// Result reports what one run did and what recovery found.
type Result struct {
	Crashed   bool                  // the injected crash fired
	Committed int                   // transactions acknowledged before the end
	LogBytes  int64                 // record bytes the log accumulated
	Report    xrtree.RecoveryReport // what the reopening redo pass found
}

const setName = "crashset"

// op is one transaction on the tree: a delete of one element, or an
// insert of a batch of elements.
type op struct {
	insert bool
	es     []xmldoc.Element
}

// model tracks the committed contents of the tree plus the single
// transaction whose acknowledgment the crash swallowed.
type model struct {
	present   map[uint32]xmldoc.Element
	committed int // transactions acknowledged
	pending   *op // in flight at the crash: atomically applied or not
}

func newModel(es []xmldoc.Element) *model {
	m := &model{present: make(map[uint32]xmldoc.Element, len(es))}
	for _, e := range es {
		m.present[e.Start] = e
	}
	return m
}

func (m *model) apply(o op) {
	for _, e := range o.es {
		if o.insert {
			m.present[e.Start] = e
		} else {
			delete(m.present, e.Start)
		}
	}
}

// verify compares a reopened tree's scan against the model: the committed
// state must match exactly, except that the pending transaction may have
// applied — entirely, never in part (commit is atomic).
func (m *model) verify(got []xmldoc.Element) error {
	if m.matches(got) {
		return nil
	}
	if m.pending != nil {
		m.apply(*m.pending)
		ok := m.matches(got)
		m.apply(op{insert: !m.pending.insert, es: m.pending.es}) // undo
		if ok {
			return nil
		}
	}
	return fmt.Errorf("crashtest: xr-tree diverged from committed state: %d elements on disk, %d committed (pending: %+v)",
		len(got), len(m.present), m.pending)
}

func (m *model) matches(got []xmldoc.Element) bool {
	if len(got) != len(m.present) {
		return false
	}
	for _, e := range got {
		w, ok := m.present[e.Start]
		if !ok || w != e {
			return false
		}
	}
	return true
}

// document generates a region-encoded document in preorder: every pair of
// regions is disjoint or properly nested, starts strictly increase, and
// levels are real tree depths — exactly what the indexes assume.
func document(rng *rand.Rand, n int) []xmldoc.Element {
	var out []xmldoc.Element
	var pos uint32 = 1
	var ref uint32
	var gen func(level uint16)
	gen = func(level uint16) {
		if len(out) >= n {
			return
		}
		e := xmldoc.Element{DocID: 1, Start: pos, Level: level, Ref: ref}
		idx := len(out)
		out = append(out, e)
		pos++
		ref++
		if level < 12 {
			for k := rng.Intn(4); k > 0 && len(out) < n; k-- {
				gen(level + 1)
			}
		}
		out[idx].End = pos
		pos++
	}
	for len(out) < n {
		gen(1)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Run executes one crash (or probe) run in dir: build a store, mutate it
// until the log dies (or the workload ends), reopen through recovery, and
// verify the committed state and every index invariant.
func Run(dir string, cfg Config) (Result, error) {
	cfg.defaults()
	var res Result
	rng := rand.New(rand.NewSource(cfg.Seed))
	universe := document(rng, 512)

	// Split the universe into the bulk-loaded base and insert candidates.
	var base, extra []xmldoc.Element
	for _, e := range universe {
		if rng.Intn(2) == 0 {
			base = append(base, e)
		} else {
			extra = append(extra, e)
		}
	}
	if len(base) == 0 {
		base, extra = extra[:1], extra[1:]
	}

	var cfs *FS
	opts := xrtree.StoreOptions{
		PageSize:           cfg.PageSize,
		BufferPages:        cfg.BufferPages,
		WAL:                true,
		WALSegmentBytes:    8 << 10,
		WALCheckpointBytes: 32 << 10,
	}
	if cfg.KillAfter > 0 {
		cfs = NewFS(cfg.KillAfter)
		opts.WALFS = cfs
	}
	path := filepath.Join(dir, "store.db")

	m, err := workload(path, opts, cfg, rng, base, extra, cfs, &res)
	if err != nil {
		return res, err
	}
	return res, reverify(path, cfg, m, &res)
}

// workload builds the store, runs the mutation stream until it finishes
// or the log dies, and abandons (or cleanly closes) the store. The
// returned model is nil when the crash hit before the initial save —
// nothing was acknowledged, so there is nothing to hold recovery to.
func workload(path string, opts xrtree.StoreOptions, cfg Config, rng *rand.Rand,
	base, extra []xmldoc.Element, cfs *FS, res *Result) (*model, error) {

	crashed := func(err error) bool { return cfs != nil && cfs.Crashed() && err != nil }

	store, err := xrtree.CreateStore(path, opts)
	if err != nil {
		if crashed(err) {
			// The budget died inside the first segment header: the log
			// never started, nothing was acknowledged.
			res.Crashed = true
			return nil, nil
		}
		return nil, fmt.Errorf("crashtest: create store: %w", err)
	}

	// All three access paths, so the reopened set can be joined by the
	// no-index and B+ algorithms as well as by XR-stack.
	set, err := store.IndexElements(base, xrtree.IndexOptions{})
	if err == nil {
		err = store.SaveSet(setName, set)
	}
	if err != nil {
		store.Abandon()
		if crashed(err) {
			res.Crashed = true
			return nil, nil
		}
		return nil, fmt.Errorf("crashtest: setup: %w", err)
	}

	xr, err := set.XRTree()
	if err != nil {
		store.Abandon()
		return nil, err
	}

	m := newModel(base)
	// The mutation stream: each round is one single-element insert or
	// delete, then one batch of two or three inserts. Delete victims come
	// from the committed state and return to the insert pool.
	inPool := append([]xmldoc.Element(nil), extra...)
	take := func() xmldoc.Element {
		j := rng.Intn(len(inPool))
		e := inPool[j]
		inPool[j] = inPool[len(inPool)-1]
		inPool = inPool[:len(inPool)-1]
		return e
	}
	for i := 0; i < cfg.Ops; i++ {
		var single op
		if len(inPool) > 0 && (len(m.present) < 8 || rng.Intn(2) == 0) {
			single = op{insert: true, es: []xmldoc.Element{take()}}
		} else {
			starts := make([]uint32, 0, len(m.present))
			for s := range m.present {
				starts = append(starts, s)
			}
			sort.Slice(starts, func(a, b int) bool { return starts[a] < starts[b] })
			victim := m.present[starts[rng.Intn(len(starts))]]
			single = op{insert: false, es: []xmldoc.Element{victim}}
			inPool = append(inPool, victim)
		}
		batch := op{insert: true}
		for k := 2 + rng.Intn(2); k > 0 && len(inPool) > 0; k-- {
			batch.es = append(batch.es, take())
		}

		for _, o := range []op{single, batch} {
			if len(o.es) == 0 {
				continue
			}
			if o.insert {
				err = xr.Insert(o.es...)
			} else {
				err = xr.Delete(o.es[0].Start)
			}
			if err != nil {
				store.Abandon()
				if crashed(err) {
					res.Crashed = true
					m.pending = &o
					return m, nil
				}
				return nil, fmt.Errorf("crashtest: round %d: %w", i, err)
			}
			m.apply(o)
			m.committed++
			res.Committed++
		}
	}

	if st, ok := store.WALStats(); ok {
		res.LogBytes = st.Bytes
	}
	if cfs != nil {
		// Budget never hit: crash at the end instead of closing.
		res.Crashed = cfs.Crashed()
		store.Abandon()
		return m, nil
	}
	if err := store.Close(); err != nil {
		return nil, fmt.Errorf("crashtest: clean close: %w", err)
	}
	return m, nil
}

// reverify reopens the store, lets recovery redo the log, and checks the
// tree against its model and Definition 4 and the join algorithms
// against each other. It then closes cleanly and reopens once more,
// verifying that the clean path replays nothing.
func reverify(path string, cfg Config, m *model, res *Result) error {
	opts := xrtree.StoreOptions{PageSize: cfg.PageSize, BufferPages: cfg.BufferPages, WAL: true}
	store, err := xrtree.OpenStore(path, opts)
	if err != nil {
		return fmt.Errorf("crashtest: reopen: %w", err)
	}
	if rep := store.Recovery(); rep != nil {
		res.Report = *rep
	}
	if err := checkStore(store, m); err != nil {
		store.Abandon()
		return err
	}
	if err := store.Close(); err != nil {
		return fmt.Errorf("crashtest: close after recovery: %w", err)
	}

	// Second open: the previous close was clean, so recovery must trust it.
	store, err = xrtree.OpenStore(path, opts)
	if err != nil {
		return fmt.Errorf("crashtest: second reopen: %w", err)
	}
	defer store.Close()
	if rep := store.Recovery(); rep == nil || rep.Replayed() {
		return fmt.Errorf("crashtest: clean shutdown not honored: report %+v", rep)
	}
	return checkStore(store, m)
}

// checkStore verifies one opened store against the model. A nil model
// means the crash predated the save: any consistent catalog state is
// acceptable, including no catalog entry at all.
func checkStore(store *xrtree.Store, m *model) error {
	set, err := store.OpenSet(setName)
	if err != nil {
		if m == nil && (errors.Is(err, xrtree.ErrUnknownSet) || errors.Is(err, xrtree.ErrNoCatalog)) {
			return nil
		}
		return fmt.Errorf("crashtest: open set: %w", err)
	}

	xr, err := set.XRTree()
	if err != nil {
		return err
	}
	if err := xr.CheckInvariants(); err != nil {
		return fmt.Errorf("crashtest: Definition 4 violated after recovery: %w", err)
	}
	got, err := scanXR(xr)
	if err != nil {
		return err
	}
	if m != nil {
		if err := m.verify(got); err != nil {
			return err
		}
		if m.committed > 0 && !xr.Mutated() {
			return fmt.Errorf("crashtest: %d transactions committed but the mutated bit was lost", m.committed)
		}
	}
	return checkJoins(set, got)
}

// checkJoins self-joins the reopened set with XR-stack, no-index and B+
// and holds each to the reference join over the tree's contents. On a
// mutated set no-index and B+ must read the XR-tree, not the stale
// bulk-loaded list and B+-tree, so this also proves the persisted
// mutated bit.
func checkJoins(set *xrtree.ElementSet, es []xmldoc.Element) error {
	want := join.Reference(join.AncestorDescendant, es, es)
	byDesc := func(ps []join.Pair) {
		sort.Slice(ps, func(i, j int) bool {
			if ps[i].D.Start != ps[j].D.Start {
				return ps[i].D.Start < ps[j].D.Start
			}
			return ps[i].A.Start < ps[j].A.Start
		})
	}
	byDesc(want)
	for _, alg := range []xrtree.Algorithm{xrtree.AlgXRStack, xrtree.AlgNoIndex, xrtree.AlgBPlus} {
		got, err := xrtree.JoinPairs(alg, xrtree.AncestorDescendant, set, set, nil)
		if err != nil {
			return fmt.Errorf("crashtest: %v join after recovery: %w", alg, err)
		}
		byDesc(got)
		if len(got) != len(want) {
			return fmt.Errorf("crashtest: %v join after recovery: %d pairs, want %d", alg, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("crashtest: %v join after recovery: pair %d = %v, want %v", alg, i, got[i], want[i])
			}
		}
	}
	return nil
}

func scanXR(t *core.Tree) ([]xmldoc.Element, error) {
	it, err := t.Scan(nil)
	if err != nil {
		return nil, err
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
	return out, it.Err()
}
