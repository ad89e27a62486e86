package a

import "fmt"

// The transaction-aware and traced pool methods, and a core-shaped tree
// whose fetch/unpin helpers wrap them.

type Tx struct{}

type Tracer interface{ Read() }

func (p *Pool) FetchTraced(id PageID, tr Tracer) ([]byte, error)             { return nil, nil }
func (p *Pool) FetchCopyTraced(id PageID, dst []byte, tr Tracer) error       { return nil }
func (p *Pool) FetchHeld(tx *Tx, id PageID) ([]byte, error)                  { return nil, nil }
func (p *Pool) FetchHeldTraced(tx *Tx, id PageID, tr Tracer) ([]byte, error) { return nil, nil }
func (p *Pool) FetchNewHeld(tx *Tx) (PageID, []byte, error)                  { return 0, nil, nil }
func (p *Pool) UnpinTx(tx *Tx, id PageID, dirty bool) error                  { return nil }
func (p *Pool) DiscardTx(tx *Tx, id PageID) error                            { return nil }

type tree struct {
	pool *Pool
	tx   *Tx
	meta PageID
}

type slot struct {
	page PageID
	idx  int
}

// fetch, fetchNew and unpin mirror core.Tree's helpers: fetch and
// fetchNew return pins to their callers, unpin releases its argument's.
func (t *tree) fetch(id PageID) ([]byte, error) {
	return t.pool.FetchHeld(t.tx, id)
}

func (t *tree) fetchNew() (PageID, []byte, error) {
	return t.pool.FetchNewHeld(t.tx)
}

func (t *tree) unpin(id PageID, dirty bool) error {
	return t.pool.UnpinTx(t.tx, id, dirty)
}

// ---- negative cases ----

func (t *tree) goodHeld(id PageID, tr Tracer) error {
	data, err := t.pool.FetchHeldTraced(t.tx, id, tr)
	if err != nil {
		return err
	}
	use(data[0])
	return t.pool.DiscardTx(t.tx, id)
}

// goodSelectorRelease releases pins whose ids are selectors through the
// same-package release wrapper.
func (t *tree) goodSelectorRelease(loc slot) error {
	node, err := t.pool.Fetch(loc.page)
	if err != nil {
		return err
	}
	meta, err := t.pool.Fetch(t.meta)
	if err != nil {
		t.unpin(loc.page, false)
		return err
	}
	meta[0] = node[loc.idx]
	t.unpin(t.meta, true)
	return t.unpin(loc.page, false)
}

func (t *tree) goodWrapped(id PageID) (PageID, error) {
	data, err := t.fetch(id)
	if err != nil {
		return invalid, err
	}
	nid, ndata, err := t.fetchNew()
	if err != nil {
		t.unpin(id, false)
		return invalid, err
	}
	ndata[0] = data[0]
	t.unpin(nid, true)
	return nid, t.unpin(id, false)
}

// goodTracedCopy: a traced pinless copy takes no pin and releases none.
func (t *tree) goodTracedCopy(id PageID, buf []byte, tr Tracer) error {
	data, err := t.pool.FetchTraced(id, tr)
	if err != nil {
		return err
	}
	defer t.pool.Unpin(id, false)
	if err := t.pool.FetchCopyTraced(id, buf, tr); err != nil {
		return err
	}
	use(data[0])
	return nil
}

// ---- positive cases ----

func (t *tree) badHeld(id PageID) error {
	data, err := t.pool.FetchHeld(t.tx, id)
	if err != nil {
		return err
	}
	if data[0] == 0 {
		return errShort // want `pin leak: id fetched at line \d+ is still pinned on this return path`
	}
	return t.pool.UnpinTx(t.tx, id, true)
}

func (t *tree) badWrappedNew() error {
	id, data, err := t.fetchNew()
	if err != nil {
		return err
	}
	if data[0] == 0 {
		return errShort // want `pin leak: id fetched at line \d+ is still pinned on this return path`
	}
	return t.unpin(id, true)
}

// badErrorf: formatting the id into an error is not a hand-off.
func badErrorf(p *Pool, id PageID) error {
	data, err := p.Fetch(id)
	if err != nil {
		return err
	}
	if data[0] == 0 {
		return fmt.Errorf("page %d: %w", id, errShort) // want `pin leak: id fetched at line \d+ is still pinned on this return path`
	}
	return p.Unpin(id, false)
}

// chain5..chain1 is a pin-returning wrapper chain declared outermost
// first, so each round of wrapper discovery resolves one more level.
func chain5(p *Pool, id PageID) ([]byte, error) { return chain4(p, id) }
func chain4(p *Pool, id PageID) ([]byte, error) { return chain3(p, id) }
func chain3(p *Pool, id PageID) ([]byte, error) { return chain2(p, id) }
func chain2(p *Pool, id PageID) ([]byte, error) { return chain1(p, id) }
func chain1(p *Pool, id PageID) ([]byte, error) { return p.Fetch(id) }

func badDeepWrapper(p *Pool, id PageID) int {
	data, err := chain5(p, id)
	if err != nil {
		return 0
	}
	return len(data) // want `pin leak: id fetched at line \d+ is still pinned on this return path`
}

// reread fetches its own argument through fetchLater, declared after it,
// hands it to a same-package helper, and releases it. Releasing a page it
// pinned itself does not make it a releasing wrapper, so its caller still
// owes the release of loc.page.
func (t *tree) reread(id PageID) error {
	data, err := t.fetchLater(id)
	if err != nil {
		return err
	}
	if err := t.verify(id, data); err != nil {
		t.unpin(id, false)
		return err
	}
	return t.unpin(id, false)
}

func (t *tree) verify(id PageID, data []byte) error { return nil }

func (t *tree) badRereadKeepsPin(loc slot) error {
	if _, err := t.pool.Fetch(loc.page); err != nil {
		return err
	}
	t.reread(loc.page)
	return nil // want `pin leak: loc.page fetched at line \d+ is still pinned on this return path`
}

func (t *tree) fetchLater(id PageID) ([]byte, error) { return t.pool.Fetch(id) }
