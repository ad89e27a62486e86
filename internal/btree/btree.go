// Package btree implements the paged B+-tree used by the Anc_Des_B+
// structural-join baseline [Chien et al., VLDB 2002] that the paper
// compares against. It indexes region-encoded elements on their start
// position: leaf pages hold full element entries sorted by start and are
// linked left to right; internal pages hold separator keys and child
// pointers.
//
// The tree is a read-only paper baseline: BulkLoad builds it once from a
// start-sorted element slice, and every later operation reads. Updates
// go to the XR-tree (package core), the one mutable access path of an
// element set. All page access goes through the buffer pool so
// experiments observe page misses. Iterators support SeekGE, the
// primitive the B+ join algorithm uses to skip descendants ("range
// queries"), and sequential scans over the leaf chain.
//
// # Concurrency
//
// A tree is bulk-loaded before it is published and never written again,
// so readers need no latches: any number of concurrent lookups and
// iterators share it. Iterators work on private leaf copies, and query
// paths attribute costs to caller-supplied counters.
package btree

import (
	"errors"
	"fmt"

	"xrtree/internal/bufferpool"
	"xrtree/internal/metrics"
	"xrtree/internal/pagefile"
	"xrtree/internal/xmldoc"
)

// Page layouts.
//
// Meta page (one per tree):
//
//	0: magic u32 | 4: root u32 | 8: height u32 | 12: count u32 | 16: docID u32
//
// Leaf page:
//
//	0: type u8 (=leafType) | 2: count u16 | 4: next u32 | 8: prev u32
//	12: highKey u32 (lowest key of the right sibling; 0 = +∞)
//	16: entries, count × xmldoc.EncodedSize, sorted by start
//
// Internal page:
//
//	0: type u8 (=internalType) | 2: count u16 (number of keys m)
//	4: child0 u32 | 8: next u32 (right sibling) | 12: highKey u32
//	16: entries, m × 8 bytes: key u32 | child u32
//	    (child of entry i is the subtree with keys ≥ key i)
//
// The high key and right link are B-link fields kept for page-format
// stability: BulkLoad still writes them, but readers of a bulk-loaded tree
// never need to move right.
const (
	metaMagic = 0x42545230 // "BTR0"

	leafType     = 1
	internalType = 2

	leafHeader     = 16
	offLeafCount   = 2
	offLeafNext    = 4
	offLeafPrev    = 8
	offLeafHigh    = 12
	internalHeader = 16
	offIntCount    = 2
	offIntChild0   = 4
	offIntNext     = 8
	offIntHigh     = 12
	intEntrySize   = 8
)

// Errors returned by the tree.
var (
	ErrNotFound = errors.New("btree: element not found")
	ErrCorrupt  = errors.New("btree: corrupt page")
)

// Tree is a disk-resident B+-tree over elements keyed by Start.
type Tree struct {
	pool  *bufferpool.Pool
	meta  pagefile.PageID
	docID uint32

	root   pagefile.PageID
	height int // 1 = root is a leaf
	count  int

	leafCap int // max elements per leaf
	intCap  int // max keys per internal node

	debugPins int // net pins of the BulkLoad in flight; xrtreedebug only
}

// fetch, fetchNew and unpin are BulkLoad's pool calls, counted for the
// xrtreedebug pin-balance check.

func (t *Tree) fetch(id pagefile.PageID) ([]byte, error) {
	data, err := t.pool.Fetch(id)
	t.debugPinned(err, 1)
	return data, err
}

func (t *Tree) fetchNew() (pagefile.PageID, []byte, error) {
	id, data, err := t.pool.FetchNew()
	t.debugPinned(err, 1)
	return id, data, err
}

func (t *Tree) unpin(id pagefile.PageID, dirty bool) error {
	err := t.pool.Unpin(id, dirty)
	t.debugPinned(err, -1)
	return err
}

// New creates an empty tree whose pages come from pool's file.
func New(pool *bufferpool.Pool, docID uint32) (*Tree, error) {
	t := &Tree{pool: pool, docID: docID, height: 1}
	t.computeCaps()
	metaID, metaData, err := pool.FetchNew()
	if err != nil {
		return nil, err
	}
	t.meta = metaID
	rootID, rootData, err := pool.FetchNew()
	if err != nil {
		pool.Unpin(metaID, true)
		return nil, err
	}
	initLeaf(rootData)
	if err := pool.Unpin(rootID, true); err != nil {
		pool.Unpin(metaID, true) // best-effort: the first error propagates
		return nil, err
	}
	t.root = rootID
	putU32(metaData[0:], metaMagic)
	t.writeMeta(metaData)
	if err := pool.Unpin(metaID, true); err != nil {
		return nil, err
	}
	return t, nil
}

// Open reattaches to a tree previously created by New in pool's file.
func Open(pool *bufferpool.Pool, meta pagefile.PageID) (*Tree, error) {
	t := &Tree{pool: pool, meta: meta}
	t.computeCaps()
	data, err := pool.Fetch(meta)
	if err != nil {
		return nil, err
	}
	defer pool.Unpin(meta, false)
	if getU32(data[0:]) != metaMagic {
		return nil, fmt.Errorf("%w: bad meta magic", ErrCorrupt)
	}
	t.root = pagefile.PageID(getU32(data[4:]))
	t.height = int(getU32(data[8:]))
	t.count = int(getU32(data[12:]))
	t.docID = getU32(data[16:])
	return t, nil
}

func (t *Tree) computeCaps() {
	ps := t.pool.File().PageSize()
	t.leafCap = (ps - leafHeader) / xmldoc.EncodedSize
	t.intCap = (ps - internalHeader) / intEntrySize
	if t.leafCap < 2 || t.intCap < 3 {
		panic(fmt.Sprintf("btree: page size %d too small", ps))
	}
}

func (t *Tree) syncMeta() error {
	data, err := t.pool.Fetch(t.meta)
	if err != nil {
		return err
	}
	t.writeMeta(data)
	return t.pool.Unpin(t.meta, true)
}

func (t *Tree) writeMeta(data []byte) {
	putU32(data[4:], uint32(t.root))
	putU32(data[8:], uint32(t.height))
	putU32(data[12:], uint32(t.count))
	putU32(data[16:], t.docID)
}

// Meta returns the meta page id, the handle needed by Open.
func (t *Tree) Meta() pagefile.PageID { return t.meta }

// Len returns the number of elements in the tree.
func (t *Tree) Len() int { return t.count }

// Height returns the tree height (1 = root is a leaf).
func (t *Tree) Height() int { return t.height }

// DocID returns the document id of the indexed set.
func (t *Tree) DocID() uint32 { return t.docID }

// The add* helpers attribute costs to the caller's counter set, so
// concurrent readers never share mutable counter state.
func addNode(c *metrics.Counters) {
	if c != nil {
		c.IndexNodeReads++
	}
}

func addLeaf(c *metrics.Counters) {
	if c != nil {
		c.LeafReads++
	}
}

func addScan(c *metrics.Counters, n int64) {
	if c != nil {
		c.ElementsScanned += n
	}
}

// --- page helpers -------------------------------------------------------

func initLeaf(data []byte) {
	for i := range data[:leafHeader] {
		data[i] = 0
	}
	data[0] = leafType
	putU32(data[offLeafNext:], uint32(pagefile.InvalidPage))
	putU32(data[offLeafPrev:], uint32(pagefile.InvalidPage))
}

func initInternal(data []byte) {
	for i := range data[:internalHeader] {
		data[i] = 0
	}
	data[0] = internalType
	putU32(data[offIntNext:], uint32(pagefile.InvalidPage))
}

func leafCount(data []byte) int    { return int(getU16(data[offLeafCount:])) }
func intCount(data []byte) int     { return int(getU16(data[offIntCount:])) }
func isLeaf(data []byte) bool      { return data[0] == leafType }
func setLeafCount(d []byte, n int) { putU16(d[offLeafCount:], uint16(n)) }
func setIntCount(d []byte, n int)  { putU16(d[offIntCount:], uint16(n)) }

func leafEntry(data []byte, i int) []byte {
	off := leafHeader + i*xmldoc.EncodedSize
	return data[off : off+xmldoc.EncodedSize]
}

func leafElem(data []byte, i int) xmldoc.Element {
	e, _ := xmldoc.DecodeElement(leafEntry(data, i))
	return e
}

func leafKey(data []byte, i int) uint32 { return getU32(leafEntry(data, i)) }

func leafNext(data []byte) pagefile.PageID     { return pagefile.PageID(getU32(data[offLeafNext:])) }
func setLeafNext(d []byte, id pagefile.PageID) { putU32(d[offLeafNext:], uint32(id)) }
func setLeafPrev(d []byte, id pagefile.PageID) { putU32(d[offLeafPrev:], uint32(id)) }

// The high key is the lowest key of the page's right sibling; 0 means +∞
// (rightmost page at its level). For leaves the chain's next pointer is
// the right link.
func setLeafHigh(d []byte, k uint32)          { putU32(d[offLeafHigh:], k) }
func setIntNext(d []byte, id pagefile.PageID) { putU32(d[offIntNext:], uint32(id)) }
func setIntHigh(d []byte, k uint32)           { putU32(d[offIntHigh:], k) }

func intKey(data []byte, i int) uint32 {
	return getU32(data[internalHeader+i*intEntrySize:])
}

func setIntKey(data []byte, i int, k uint32) {
	putU32(data[internalHeader+i*intEntrySize:], k)
}

// intChild returns child pointer i (0..m). Child 0 is stored separately.
func intChild(data []byte, i int) pagefile.PageID {
	if i == 0 {
		return pagefile.PageID(getU32(data[offIntChild0:]))
	}
	return pagefile.PageID(getU32(data[internalHeader+(i-1)*intEntrySize+4:]))
}

func setIntChild(data []byte, i int, id pagefile.PageID) {
	if i == 0 {
		putU32(data[offIntChild0:], uint32(id))
		return
	}
	putU32(data[internalHeader+(i-1)*intEntrySize+4:], uint32(id))
}

// leafSearch returns the index of the first entry with start ≥ key.
func leafSearch(data []byte, key uint32) int { return leafSearchFrom(data, 0, key) }

// leafSearchFrom is leafSearch over the entries from index lo on.
func leafSearchFrom(data []byte, lo int, key uint32) int {
	hi := leafCount(data)
	for lo < hi {
		mid := (lo + hi) / 2
		if leafKey(data, mid) < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// intSearch returns the child index to follow for key: the child after the
// largest separator ≤ key, or child 0 if every separator exceeds key.
func intSearch(data []byte, key uint32) int {
	lo, hi := 0, intCount(data) // searching over separators
	for lo < hi {
		mid := (lo + hi) / 2
		if intKey(data, mid) <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo // number of separators ≤ key == child index
}

func putU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putU16(b []byte, v uint16) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
}

func getU16(b []byte) uint16 {
	return uint16(b[0]) | uint16(b[1])<<8
}
