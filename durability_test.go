package xrtree_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xrtree"
	"xrtree/internal/xmldoc"
)

// walStore creates a WAL-enabled store with one saved set built from the
// shared sample document.
func walStore(t *testing.T, path string) (*xrtree.Store, *xrtree.ElementSet) {
	t.Helper()
	store, err := xrtree.CreateStore(path, xrtree.StoreOptions{PageSize: 512, BufferPages: 64, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xrtree.ParseXML(strings.NewReader(sampleXML), 1)
	if err != nil {
		t.Fatal(err)
	}
	set, err := store.IndexElements(doc.ElementsByTag("emp"), xrtree.IndexOptions{SkipList: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.SaveSet("emps", set); err != nil {
		t.Fatal(err)
	}
	return store, set
}

// TestWALRecoveryRoundtrip commits an insert batch, drops the store
// without closing, and checks that recovery on reopen redoes it — and
// that the redone set still answers every join from its XR-tree.
func TestWALRecoveryRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "xr.db")
	store, set := walStore(t, path)
	xr, err := set.XRTree()
	if err != nil {
		t.Fatal(err)
	}
	ins := xmldoc.Element{DocID: 1, Start: 1000, End: 1003, Level: 1}
	inner := xmldoc.Element{DocID: 1, Start: 1001, End: 1002, Level: 2}
	if err := xr.Insert(ins, inner); err != nil {
		t.Fatal(err)
	}
	if st, ok := store.WALStats(); !ok || st.Commits == 0 {
		t.Fatalf("no commits logged: %+v ok=%v", st, ok)
	}
	store.Abandon() // crash: the insert's commit was acknowledged

	re, err := xrtree.OpenStore(path, xrtree.StoreOptions{PageSize: 512, BufferPages: 64, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	rep := re.Recovery()
	if rep == nil || !rep.Replayed() {
		t.Fatalf("recovery report %+v", rep)
	}
	set2, err := re.OpenSet("emps")
	if err != nil {
		t.Fatal(err)
	}
	xr2, err := set2.XRTree()
	if err != nil {
		t.Fatal(err)
	}
	if err := xr2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got, err := set2.FindAncestors(1001, nil)
	if err != nil || len(got) != 1 || got[0].Start != ins.Start || got[0].End != ins.End {
		t.Fatalf("committed insert lost: %v %v", got, err)
	}
	// The persisted mutated bit routes B+ and no-index to the XR-tree, so
	// they agree with XR-stack, new pair included, instead of reading the
	// bulk-loaded B+-tree.
	want, err := xrtree.JoinPairs(xrtree.AlgXRStack, xrtree.AncestorDescendant, set2, set2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(want); n == 0 || want[n-1] != (xrtree.Pair{A: ins, D: inner}) {
		t.Fatalf("XR-stack self-join after redo lacks the inserted pair: %v", want)
	}
	sortPairs(want)
	for _, alg := range []xrtree.Algorithm{xrtree.AlgNoIndex, xrtree.AlgBPlus} {
		pairs, err := xrtree.JoinPairs(alg, xrtree.AncestorDescendant, set2, set2, nil)
		if err != nil {
			t.Fatalf("%v after redo: %v", alg, err)
		}
		sortPairs(pairs)
		if len(pairs) != len(want) {
			t.Fatalf("%v after redo: %d pairs, XR-stack %d", alg, len(pairs), len(want))
		}
		for i := range want {
			if pairs[i] != want[i] {
				t.Fatalf("%v after redo: pair %d = %v, XR-stack %v", alg, i, pairs[i], want[i])
			}
		}
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	// The clean close must be trusted: no redo on the next open.
	re2, err := xrtree.OpenStore(path, xrtree.StoreOptions{PageSize: 512, BufferPages: 64, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if rep := re2.Recovery(); rep == nil || rep.Replayed() {
		t.Fatalf("clean shutdown not honored: %+v", rep)
	}
}

// TestOpenWithoutWALNeedsRecovery: a store that crashed with log segments
// on disk must refuse a non-WAL open with the typed error instead of
// silently exposing pre-crash state.
func TestOpenWithoutWALNeedsRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "xr.db")
	store, _ := walStore(t, path)
	store.Abandon()

	_, err := xrtree.OpenStore(path, xrtree.StoreOptions{PageSize: 512, BufferPages: 64})
	if !errors.Is(err, xrtree.ErrRecoveryNeeded) {
		t.Fatalf("err = %v, want ErrRecoveryNeeded", err)
	}

	// Reopening with WAL recovers and, after a clean close, the plain
	// open works again.
	re, err := xrtree.OpenStore(path, xrtree.StoreOptions{PageSize: 512, BufferPages: 64, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	plain, err := xrtree.OpenStore(path, xrtree.StoreOptions{PageSize: 512, BufferPages: 64})
	if err != nil {
		t.Fatalf("open after recovery and clean close: %v", err)
	}
	plain.Close()
}

// TestTornPagefileNeedsRecovery: a page file shorter than its header
// claims (a torn tail from a crashed unsynced write) must surface the
// typed error on a plain open, not open silently.
func TestTornPagefileNeedsRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "xr.db")
	store, err := xrtree.CreateStore(path, xrtree.StoreOptions{PageSize: 512, BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xrtree.ParseXML(strings.NewReader(sampleXML), 1)
	if err != nil {
		t.Fatal(err)
	}
	set, err := store.IndexElements(doc.ElementsByTag("emp"), xrtree.IndexOptions{SkipList: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.SaveSet("emps", set); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Hand-truncate the file mid-page.
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-100); err != nil {
		t.Fatal(err)
	}
	_, err = xrtree.OpenStore(path, xrtree.StoreOptions{PageSize: 512, BufferPages: 64})
	if !errors.Is(err, xrtree.ErrRecoveryNeeded) {
		t.Fatalf("err = %v, want ErrRecoveryNeeded", err)
	}
}

// TestMemStoreRejectsWAL: the log is file-backed by definition.
func TestMemStoreRejectsWAL(t *testing.T) {
	if _, err := xrtree.NewMemStore(xrtree.StoreOptions{PageSize: 512, WAL: true}); err == nil {
		t.Fatal("NewMemStore accepted WAL")
	}
}

// TestExplicitCheckpoint: a checkpoint truncates the log's replay work —
// a crash right after it redoes nothing.
func TestExplicitCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "xr.db")
	store, set := walStore(t, path)
	xr, err := set.XRTree()
	if err != nil {
		t.Fatal(err)
	}
	if err := xr.Insert(xmldoc.Element{DocID: 1, Start: 1000, End: 1003, Level: 1}); err != nil {
		t.Fatal(err)
	}
	if err := store.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	store.Abandon()

	re, err := xrtree.OpenStore(path, xrtree.StoreOptions{PageSize: 512, BufferPages: 64, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rep := re.Recovery()
	if rep == nil || rep.PagesApplied != 0 {
		t.Fatalf("checkpointed log still redid pages: %+v", rep)
	}
	set2, err := re.OpenSet("emps")
	if err != nil {
		t.Fatal(err)
	}
	xr2, err := set2.XRTree()
	if err != nil {
		t.Fatal(err)
	}
	if err := xr2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got, err := set2.FindAncestors(1001, nil); err != nil || len(got) != 1 {
		t.Fatalf("checkpointed insert lost: %v %v", got, err)
	}
}
