package btree

import (
	"fmt"
	"sync"

	"xrtree/internal/metrics"
	"xrtree/internal/obs"
	"xrtree/internal/pagefile"
	"xrtree/internal/xmldoc"
)

// pageBufs pools the per-iterator leaf-copy buffers; XR joins open
// thousands of short-lived iterators, so Seek/Close must not allocate.
var pageBufs sync.Pool

func getPageBuf(n int) []byte {
	if v := pageBufs.Get(); v != nil {
		if b := *(v.(*[]byte)); cap(b) >= n {
			return b[:n]
		}
	}
	return make([]byte, n)
}

func putPageBuf(b []byte) {
	if b != nil {
		pageBufs.Put(&b)
	}
}

// readPage copies page id into buf. A published tree is never written,
// so the copy needs no page latch.
func (t *Tree) readPage(id pagefile.PageID, buf []byte, c *metrics.Counters) error {
	return t.pool.FetchCopyTraced(id, buf, c.TraceSink())
}

// Lookup returns the element whose start equals key, or ErrNotFound, with
// costs attributed to c (nil discards them). Safe for concurrent readers.
func (t *Tree) Lookup(key uint32, c *metrics.Counters) (xmldoc.Element, error) {
	buf := getPageBuf(t.pool.File().PageSize())
	defer putPageBuf(buf)
	if err := t.descendToLeafCopy(key, c, buf); err != nil {
		return xmldoc.Element{}, err
	}
	pos := leafSearch(buf, key)
	if pos < leafCount(buf) && leafKey(buf, pos) == key {
		e := leafElem(buf, pos)
		e.DocID = t.docID
		addScan(c, 1)
		return e, nil
	}
	return xmldoc.Element{}, fmt.Errorf("%w: start %d", ErrNotFound, key)
}

// descendToLeafCopy walks from the root to the leaf covering key, copying
// each visited page into buf; on return buf holds the leaf.
func (t *Tree) descendToLeafCopy(key uint32, c *metrics.Counters, buf []byte) error {
	id := t.root
	//xrvet:bounded root-to-leaf descent, at most height iterations
	for level := t.height; ; level-- {
		if err := t.readPage(id, buf, c); err != nil {
			return err
		}
		if isLeaf(buf) {
			addLeaf(c)
			c.Emit(obs.EvIndexDescend, int64(t.height))
			return nil
		}
		if buf[0] != internalType || level <= 1 {
			return fmt.Errorf("%w: page %d at height %d is not an internal page", ErrCorrupt, id, level)
		}
		addNode(c)
		id = intChild(buf, intSearch(buf, key))
	}
}

// Iterator walks leaf entries in ascending start order. It owns a private
// copy of the current leaf, so it holds no pin between calls: any number
// of iterators — including several on one tree within a single goroutine,
// as self-joins do — coexist with each other and with point queries.
// Close returns the page copy to a pool.
type Iterator struct {
	t    *Tree
	c    *metrics.Counters
	buf  []byte
	idx  int
	err  error
	done bool
}

// SeekGE returns an iterator positioned at the first element with
// start ≥ key. This is the range-query primitive of the B+ join algorithm.
// Safe for concurrent readers.
func (t *Tree) SeekGE(key uint32, c *metrics.Counters) (*Iterator, error) {
	if err := c.Interrupted(); err != nil {
		return nil, err
	}
	buf := getPageBuf(t.pool.File().PageSize())
	if err := t.descendToLeafCopy(key, c, buf); err != nil {
		putPageBuf(buf)
		return nil, err
	}
	t.hintNextLeaf(c, buf)
	return &Iterator{t: t, c: c, buf: buf, idx: leafSearch(buf, key)}, nil
}

// hintNextLeaf publishes the chained next leaf to the pool's prefetcher,
// so a leaf-chain scan's I/O overlaps the scan of the current leaf.
func (t *Tree) hintNextLeaf(c *metrics.Counters, buf []byte) {
	if t.pool.PrefetchEnabled() {
		if next := leafNext(buf); next != pagefile.InvalidPage {
			t.pool.Prefetch(c, next)
		}
	}
}

// Scan returns an iterator over the whole tree from the smallest start.
func (t *Tree) Scan(c *metrics.Counters) (*Iterator, error) {
	return t.SeekGE(0, c)
}

// Next returns the next element. Each returned element counts as one
// element scanned. Returns false at the end or on error (check Err).
func (it *Iterator) Next() (xmldoc.Element, bool) {
	if it.err != nil || it.done {
		return xmldoc.Element{}, false
	}
	for {
		if it.idx < leafCount(it.buf) {
			e := leafElem(it.buf, it.idx)
			e.DocID = it.t.docID
			it.idx++
			addScan(it.c, 1)
			return e, true
		}
		if !it.advancePage() {
			return xmldoc.Element{}, false
		}
	}
}

// Peek returns the element Next would return without consuming it.
func (it *Iterator) Peek() (xmldoc.Element, bool) {
	if it.err != nil || it.done {
		return xmldoc.Element{}, false
	}
	for it.idx >= leafCount(it.buf) {
		if !it.advancePage() {
			return xmldoc.Element{}, false
		}
	}
	e := leafElem(it.buf, it.idx)
	e.DocID = it.t.docID
	return e, true
}

// advancePage replaces the iterator's leaf copy with the next leaf on the
// chain.
func (it *Iterator) advancePage() bool {
	next := leafNext(it.buf)
	if next == pagefile.InvalidPage {
		it.done = true
		return false
	}
	// Page boundary: the natural cancellation point of a leaf-chain scan.
	if err := it.c.Interrupted(); err != nil {
		it.err = err
		return false
	}
	t := it.t
	if err := t.readPage(next, it.buf, it.c); err != nil {
		it.err = err
		return false
	}
	if !isLeaf(it.buf) {
		it.err = fmt.Errorf("%w: leaf chain broken at page %d", ErrCorrupt, next)
		return false
	}
	t.hintNextLeaf(it.c, it.buf)
	it.idx = 0
	if it.c != nil {
		it.c.LeafReads++
	}
	return true
}

// Err returns the first iteration error.
func (it *Iterator) Err() error { return it.err }

// Close releases the iterator's page copy. Safe to call multiple times.
func (it *Iterator) Close() error {
	if it.buf != nil {
		putPageBuf(it.buf)
		it.buf = nil
	}
	return it.err
}

// Range returns all elements with start in [lo, hi], a convenience wrapper
// over SeekGE used in tests and examples.
func (t *Tree) Range(lo, hi uint32, c *metrics.Counters) ([]xmldoc.Element, error) {
	it, err := t.SeekGE(lo, c)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	var out []xmldoc.Element
	for {
		e, ok := it.Next()
		if !ok || e.Start > hi {
			break
		}
		out = append(out, e)
	}
	return out, it.Err()
}
