package btree

import (
	"fmt"

	"xrtree/internal/pagefile"
	"xrtree/internal/xmldoc"
)

// BulkLoad builds the tree from a start-sorted element slice, packing
// leaves to a fill factor and building internal levels bottom-up. The tree
// must be empty, and it must not be shared with readers until BulkLoad
// returns. fill is the target leaf occupancy in (0,1]; 0 means 1.0 (fully
// packed, which is what the read-only join experiments use).
func (t *Tree) BulkLoad(es []xmldoc.Element, fill float64) error {
	defer t.debugPinBalance()()
	// Unlogged bulk construction; durability comes from the store's save.
	t.pool.BeginUnlogged()
	defer t.pool.EndUnlogged()
	if t.count != 0 {
		return fmt.Errorf("btree: BulkLoad into non-empty tree (%d elements)", t.count)
	}
	if len(es) == 0 {
		return nil
	}
	if fill <= 0 || fill > 1 {
		fill = 1.0
	}
	perLeaf := int(float64(t.leafCap) * fill)
	if perLeaf < 1 {
		perLeaf = 1
	}
	for i := 1; i < len(es); i++ {
		if es[i-1].Start >= es[i].Start {
			return fmt.Errorf("btree: BulkLoad input not sorted at %d", i)
		}
	}

	// Build the leaf level, reusing the existing (empty) root as first
	// leaf. Each leaf stays pinned until its right neighbor exists, so its
	// chain pointer and high key can be set.
	type levelEntry struct {
		firstKey uint32
		id       pagefile.PageID
	}
	var level []levelEntry
	var prevID pagefile.PageID
	var prevData []byte
	for off := 0; off < len(es); off += perLeaf {
		n := len(es) - off
		if n > perLeaf {
			n = perLeaf
		}
		var id pagefile.PageID
		var data []byte
		var err error
		if off == 0 {
			id = t.root
			data, err = t.fetch(id)
		} else {
			id, data, err = t.fetchNew()
		}
		if err != nil {
			return err
		}
		initLeaf(data)
		for i := 0; i < n; i++ {
			es[off+i].Encode(leafEntry(data, i), 0)
		}
		setLeafCount(data, n)
		if prevData != nil {
			setLeafPrev(data, prevID)
			setLeafNext(prevData, id)
			setLeafHigh(prevData, es[off].Start)
			if err := t.unpin(prevID, true); err != nil {
				return err
			}
		}
		level = append(level, levelEntry{firstKey: es[off].Start, id: id})
		prevID, prevData = id, data
	}
	if err := t.unpin(prevID, true); err != nil {
		return err
	}

	// Build internal levels until one node remains; as at the leaf level,
	// the previous node stays pinned until its right link can be set.
	height := 1
	perInt := int(float64(t.intCap) * fill)
	if perInt < 2 {
		perInt = 2
	}
	for len(level) > 1 {
		var next []levelEntry
		prevID = pagefile.InvalidPage
		prevData = nil
		for off := 0; off < len(level); {
			n := len(level) - off
			if n > perInt+1 {
				n = perInt + 1
			}
			// A node with n children has n-1 keys; avoid leaving a
			// dangling single-child node at the end.
			if rem := len(level) - off - n; rem == 1 {
				n--
			}
			id, data, err := t.fetchNew()
			if err != nil {
				return err
			}
			initInternal(data)
			setIntChild(data, 0, level[off].id)
			for i := 1; i < n; i++ {
				setIntKey(data, i-1, level[off+i].firstKey)
				setIntChild(data, i, level[off+i].id)
			}
			setIntCount(data, n-1)
			if prevData != nil {
				setIntNext(prevData, id)
				setIntHigh(prevData, level[off].firstKey)
				if err := t.unpin(prevID, true); err != nil {
					return err
				}
			}
			next = append(next, levelEntry{firstKey: level[off].firstKey, id: id})
			prevID, prevData = id, data
			off += n
		}
		if err := t.unpin(prevID, true); err != nil {
			return err
		}
		level = next
		height++
	}
	t.root, t.height = level[0].id, height
	t.count = len(es)
	return t.syncMeta()
}
