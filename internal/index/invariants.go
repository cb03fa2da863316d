package index

import (
	"fmt"

	"mb2/internal/storage"
)

// CheckInvariants verifies the B+tree's structural invariants under the
// read latch:
//
//   - every leaf sits at the same depth (matching the recorded height);
//   - node fanout stays within bounds;
//   - keys are strictly increasing within every leaf and across the whole
//     leaf chain, and an internal node's separators after its first are
//     strictly increasing (the first is never read, and inserts below the
//     tree's minimum leave it stale-high);
//   - an internal node's separator keys bound its children: for i >= 1
//     every key in child i is >= keys[i], and every key in child i is
//     < keys[i+1] (separators may be stale-low after deletions, never
//     stale-high);
//   - the leaf sibling chain enumerates exactly the leaves reachable from
//     the root, in order;
//   - a leaf's first rows and later-row lists parallel its keys, every
//     key's span lies inside the leaf's slab, and the numKeys/numRows
//     counters match the tree's contents.
//
// The concurrency harness (internal/check) runs this between stress phases
// and after parallel bulk builds.
func (t *BTree) CheckInvariants() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.root == nil {
		return fmt.Errorf("index %q: nil root", t.Meta.Name)
	}
	v := &treeValidator{name: t.Meta.Name}
	if err := v.node(t.root, 1, t.height, nil, nil); err != nil {
		return err
	}
	if len(v.leaves) == 0 {
		return fmt.Errorf("index %q: no leaves reachable from root", t.Meta.Name)
	}
	// The sibling chain starting at the leftmost leaf must visit exactly
	// the reachable leaves, in order.
	chain := v.leaves[0]
	for i, leaf := range v.leaves {
		if chain != leaf {
			return fmt.Errorf("index %q: leaf chain diverges from tree order at leaf %d", t.Meta.Name, i)
		}
		chain = chain.next
	}
	if chain != nil {
		return fmt.Errorf("index %q: leaf chain extends past the last reachable leaf", t.Meta.Name)
	}
	if v.keys != t.numKeys {
		return fmt.Errorf("index %q: counted %d keys, counter says %d", t.Meta.Name, v.keys, t.numKeys)
	}
	if v.rows != t.numRows {
		return fmt.Errorf("index %q: counted %d rows, counter says %d", t.Meta.Name, v.rows, t.numRows)
	}
	return nil
}

type treeValidator struct {
	name   string
	leaves []*node
	keys   int
	rows   int
	// lastKey tracks the previous leaf key seen in tree order, across
	// leaf boundaries.
	lastKey Key
	haveKey bool
}

// node validates the subtree rooted at n. lo and hi bound the keys the
// subtree may contain: lo is inclusive (nil for the leftmost spine, which
// absorbs below-minimum inserts), hi exclusive (nil for unbounded).
func (v *treeValidator) node(n *node, depth, height int, lo, hi Key) error {
	if n.leaf {
		return v.leaf(n, depth, height, lo, hi)
	}
	// keys[0] is not ordered: routing never reads it (childIndex).
	for i := 2; i < len(n.keys); i++ {
		if n.keys[i-1].Compare(n.keys[i]) >= 0 {
			return fmt.Errorf("index %q: keys out of order at depth %d: %x >= %x",
				v.name, depth, n.keys[i-1], n.keys[i])
		}
	}
	if depth >= height {
		return fmt.Errorf("index %q: internal node at depth %d, tree height %d", v.name, depth, height)
	}
	if len(n.children) != len(n.keys) {
		return fmt.Errorf("index %q: internal node has %d children for %d keys", v.name, len(n.children), len(n.keys))
	}
	if len(n.keys) == 0 {
		return fmt.Errorf("index %q: empty internal node at depth %d", v.name, depth)
	}
	if len(n.keys) > fanout+1 {
		return fmt.Errorf("index %q: internal node holds %d keys, fanout %d", v.name, len(n.keys), fanout)
	}
	for i, child := range n.children {
		// Child 0 inherits the subtree's lower bound: inserts below the
		// global minimum always descend into the leftmost child, so its
		// separator may be stale.
		clo := lo
		if i > 0 {
			clo = n.keys[i]
		}
		chi := hi
		if i+1 < len(n.keys) {
			chi = n.keys[i+1]
		}
		if err := v.node(child, depth+1, height, clo, chi); err != nil {
			return err
		}
	}
	return nil
}

// leaf validates one leaf: its parallel arrays, every key's span inside
// the slab, and its keys' order and bounds.
func (v *treeValidator) leaf(n *node, depth, height int, lo, hi Key) error {
	if depth != height {
		return fmt.Errorf("index %q: leaf at depth %d, tree height %d", v.name, depth, height)
	}
	if len(n.spans) > fanout {
		return fmt.Errorf("index %q: leaf holds %d keys, fanout %d", v.name, len(n.spans), fanout)
	}
	if len(n.first) != len(n.spans) || (n.more != nil && len(n.more) != len(n.spans)) {
		return fmt.Errorf("index %q: leaf has %d first rows and %d later-row lists for %d keys",
			v.name, len(n.first), len(n.more), len(n.spans))
	}
	for i, s := range n.spans {
		if uint64(s.off)+uint64(s.n) > uint64(len(n.slab)) {
			return fmt.Errorf("index %q: leaf key %d spans [%d,+%d) past its %d-byte slab", v.name, i, s.off, s.n, len(n.slab))
		}
		k := n.key(i)
		if lo != nil && k.Compare(lo) < 0 {
			return fmt.Errorf("index %q: leaf key %x below separator %x", v.name, k, lo)
		}
		if hi != nil && k.Compare(hi) >= 0 {
			return fmt.Errorf("index %q: leaf key %x at or above next separator %x", v.name, k, hi)
		}
		if v.haveKey && v.lastKey.Compare(k) >= 0 {
			return fmt.Errorf("index %q: leaf keys not strictly increasing at key %x", v.name, k)
		}
		v.lastKey, v.haveKey = k, true
		v.rows += 1 + len(n.moreRows(i))
	}
	v.keys += len(n.spans)
	v.leaves = append(v.leaves, n)
	return nil
}

// Entries calls fn for every (key, row) entry in key order until fn returns
// false: the full-index iteration the invariant checkers compare against
// table contents.
func (t *BTree) Entries(fn func(Key, storage.RowID) bool) {
	t.SearchRange(nil, nil, nil, fn)
}
