package btree

import "xrtree/internal/invariant"

// debugPinned adds d to the tree's pin ledger when the page call it
// follows succeeded (err == nil). A no-op in release builds.
func (t *Tree) debugPinned(err error, d int) {
	if invariant.Enabled && err == nil {
		t.debugPins += d
	}
}

// debugPinBalance snapshots the tree's pin ledger at BulkLoad entry; the
// returned func asserts it is unchanged at exit (xrtreedebug builds only
// — the hook compiles away otherwise). The ledger counts only this
// tree's pins, so builds of other trees sharing the pool cannot disturb
// it.
func (t *Tree) debugPinBalance() func() {
	if !invariant.Enabled {
		return func() {}
	}
	before := t.debugPins
	return func() {
		invariant.Assertf(t.debugPins == before,
			"pin balance: %d pins held at BulkLoad entry, %d at exit", before, t.debugPins)
	}
}
