package index

import (
	"bytes"
	"sort"
	"sync"

	"mb2/internal/catalog"
	"mb2/internal/hw"
	"mb2/internal/storage"
)

// fanout is the maximum number of keys per node.
const fanout = 64

// bulkFill is the leaf fill factor used by bulk builds.
const bulkFill = 48

// span locates one leaf key's bytes in the leaf's slab.
type span struct{ off, n uint32 }

// node is one B+tree node. An internal node's keys[i] is the minimum key of
// children[i]; every separator is the node's own copy, so no internal node
// pins a leaf's slab.
//
// A leaf stores an entry as its key bytes and its row: key i is
// slab[spans[i]], its first row first[i], its later rows, in posting order,
// more[i]. more stays nil until a key of the leaf repeats. The slab is
// append-only: a key byte, once handed out, is never rewritten — growth,
// compaction and split write a fresh slab — so a key SearchRange passed out
// stays valid after the read latch is released.
type node struct {
	leaf     bool
	keys     []Key
	children []*node

	slab  []byte
	spans []span
	first []storage.RowID
	more  [][]storage.RowID
	next  *node // leaf sibling chain
}

// BTree is a latch-protected B+tree mapping composite keys to row IDs.
type BTree struct {
	// Meta is the catalog entry the tree was built from. Its KeyCols and
	// Unique never change; its Name is the build-time name, since a rename
	// gives the catalog a fresh entry.
	Meta *catalog.IndexMeta

	mu      sync.RWMutex
	root    *node
	height  int
	numKeys int
	numRows int
	keySize int // representative encoded key width, for the cache model
}

// NewBTree returns an empty index.
func NewBTree(meta *catalog.IndexMeta) *BTree {
	return &BTree{
		Meta:   meta,
		root:   &node{leaf: true},
		height: 1,
	}
}

// NumKeys returns the number of distinct keys.
func (t *BTree) NumKeys() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.numKeys
}

// NumRows returns the number of (key,row) entries.
func (t *BTree) NumRows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.numRows
}

func (t *BTree) sizeBytesLocked() float64 {
	return float64(t.numRows)*(float64(t.keySize)+16) + float64(t.numKeys)*8
}

func (t *BTree) chargeDescent(th *hw.Thread, loops float64) {
	if th == nil {
		return
	}
	th.RandRead(float64(t.height), t.sizeBytesLocked(), loops)
	th.Compute(float64(t.height) * 12) // binary search per node
}

// key returns leaf key i, capped so that appending to it cannot reach the
// slab bytes behind it.
func (n *node) key(i int) Key {
	s := n.spans[i]
	return Key(n.slab[s.off : s.off+s.n : s.off+s.n])
}

// moreRows returns leaf key i's rows after its first.
func (n *node) moreRows(i int) []storage.RowID {
	if n.more == nil {
		return nil
	}
	return n.more[i]
}

// search returns the position of the first leaf key >= k.
func (n *node) search(k Key) int {
	lo, hi := 0, len(n.spans)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if n.key(m).Compare(k) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// find returns the position of leaf key k, or -1.
func (n *node) find(k Key) int {
	if i := n.search(k); i < len(n.spans) && n.key(i).Equal(k) {
		return i
	}
	return -1
}

// childIndex returns the child to descend into for key k under the
// convention that keys[i] is the minimum key of children[i]: the number of
// separators after the first that are <= k. keys[0] is never read: keys
// below the tree's minimum descend into child 0 and can leave its
// separator stale-high, and one read would send a lookup of child 1's
// minimum into child 0.
func childIndex(n *node, k Key) int {
	return sort.Search(len(n.keys)-1, func(i int) bool { return n.keys[i+1].Compare(k) > 0 })
}

// leafFor descends to the leaf that holds or would hold k.
func (t *BTree) leafFor(k Key) *node {
	n := t.root
	for !n.leaf {
		n = n.children[childIndex(n, k)]
	}
	return n
}

// SearchEQ returns all rows indexed under the key. loops conveys whether the
// lookup is part of a hot loop (index nested-loop joins), which warms the
// cache (the paper's sixth execution-OU feature).
func (t *BTree) SearchEQ(th *hw.Thread, k Key, loops float64) []storage.RowID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.chargeDescent(th, loops)
	n := t.leafFor(k)
	i := n.find(k)
	if i < 0 {
		return nil
	}
	more := n.moreRows(i)
	out := make([]storage.RowID, 1+len(more))
	out[0] = n.first[i]
	copy(out[1:], more)
	return out
}

// SearchEQFunc calls fn for every row indexed under the key, in posting
// order, until fn returns false, and reports the number of rows visited.
// Unlike SearchEQ it does not copy the posting list, so the hot probe path
// of fused pipelines runs allocation-free. fn must not call back into the
// tree (the read latch is held) and must not retain k.
func (t *BTree) SearchEQFunc(th *hw.Thread, k Key, loops float64, fn func(storage.RowID) bool) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.chargeDescent(th, loops)
	n := t.leafFor(k)
	i := n.find(k)
	if i < 0 {
		return 0
	}
	if !fn(n.first[i]) {
		return 1
	}
	visited := 1
	for _, r := range n.moreRows(i) {
		visited++
		if !fn(r) {
			break
		}
	}
	return visited
}

// SearchRange calls fn for every entry with lo <= key <= hi, in key order,
// until fn returns false. It returns the number of entries visited. The
// keys fn receives are the tree's own bytes, which are never rewritten: fn
// may keep them past the call, but must not modify them.
func (t *BTree) SearchRange(th *hw.Thread, lo, hi Key, fn func(Key, storage.RowID) bool) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.chargeDescent(th, 1)
	visited := 0
	for n := t.leafFor(lo); n != nil; n = n.next {
		for i := range n.spans {
			k := n.key(i)
			if k.Compare(lo) < 0 {
				continue
			}
			if hi != nil && k.Compare(hi) > 0 {
				t.chargeLeafScan(th, visited)
				return visited
			}
			visited++
			if !fn(k, n.first[i]) {
				t.chargeLeafScan(th, visited)
				return visited
			}
			for _, r := range n.moreRows(i) {
				visited++
				if !fn(k, r) {
					t.chargeLeafScan(th, visited)
					return visited
				}
			}
		}
	}
	t.chargeLeafScan(th, visited)
	return visited
}

func (t *BTree) chargeLeafScan(th *hw.Thread, entries int) {
	if th == nil || entries == 0 {
		return
	}
	th.SeqRead(float64(entries), float64(t.keySize)+16)
}

// Insert adds a (key,row) entry. contenders is the number of threads
// concurrently mutating the index; it scales the latch charge. The tree
// copies k, so callers may pass scratch.
func (t *BTree) Insert(th *hw.Thread, k Key, row storage.RowID, contenders float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if th != nil {
		th.Latch(contenders)
	}
	t.chargeDescent(th, 1)
	if t.keySize == 0 {
		t.keySize = len(k)
	}

	promoted, right := t.insertRec(t.root, k, row, th)
	if promoted != nil {
		newRoot := &node{
			keys:     []Key{t.root.minKey(), promoted},
			children: []*node{t.root, right},
		}
		t.root = newRoot
		t.height++
	}
}

// minKey returns a copy of the subtree's minimum leaf key, or nil for an
// empty leaf.
func (n *node) minKey() Key {
	for !n.leaf {
		n = n.children[0]
	}
	if len(n.spans) == 0 {
		return nil
	}
	return bytes.Clone(n.key(0))
}

// insertRec inserts into the subtree and returns a promoted separator key
// and new right sibling when the child split.
func (t *BTree) insertRec(n *node, k Key, row storage.RowID, th *hw.Thread) (Key, *node) {
	if n.leaf {
		i := n.search(k)
		if i < len(n.spans) && n.key(i).Equal(k) {
			if n.more == nil {
				n.more = make([][]storage.RowID, len(n.spans), cap(n.spans))
			}
			n.more[i] = append(n.more[i], row)
			t.numRows++
			if th != nil {
				th.RandWrite(1, t.sizeBytesLocked())
			}
			return nil, nil
		}
		n.insertKey(i, k, row)
		t.numKeys++
		t.numRows++
		if th != nil {
			th.RandWrite(1, t.sizeBytesLocked())
			th.Alloc(float64(len(k)) + 16)
		}
		if len(n.spans) > fanout {
			return t.splitLeaf(n, th)
		}
		return nil, nil
	}

	i := childIndex(n, k)
	promoted, right := t.insertRec(n.children[i], k, row, th)
	if promoted == nil {
		return nil, nil
	}
	n.keys = append(n.keys, nil)
	copy(n.keys[i+2:], n.keys[i+1:])
	n.keys[i+1] = promoted
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
	if len(n.keys) > fanout {
		return t.splitInternal(n, th)
	}
	return nil, nil
}

// insertKey places a new key at leaf position i with row as its only
// posting, copying k's bytes to the end of the slab.
func (n *node) insertKey(i int, k Key, row storage.RowID) {
	if len(n.slab)+len(k) > cap(n.slab) {
		n.compact(len(k))
	}
	s := span{uint32(len(n.slab)), uint32(len(k))}
	n.slab = append(n.slab, k...)
	n.spans = insertAt(n.spans, i, s)
	n.first = insertAt(n.first, i, row)
	if n.more != nil {
		n.more = insertAt(n.more, i, nil)
	}
}

// compact moves the leaf's live keys into a fresh slab with room for extra
// more bytes, dropping the bytes of deleted keys. The old slab is left as
// it was for whoever still holds one of its keys. The fresh slab doubles
// what is needed, up to what the leaf needs once full at its current
// average key width.
func (n *node) compact(extra int) {
	need := extra
	for _, s := range n.spans {
		need += int(s.n)
	}
	full := (fanout + 1) * need / (len(n.spans) + 1)
	slab := make([]byte, 0, max(need, min(2*need, full)))
	for i, s := range n.spans {
		n.spans[i].off = uint32(len(slab))
		slab = append(slab, n.slab[s.off:s.off+s.n]...)
	}
	n.slab = slab
}

// insertAt inserts v at position i of s. A full s grows by doubling, and
// straight to fanout+1 once doubling would pass fanout, so a leaf's arrays
// never hold more room than the split point needs.
func insertAt[T any](s []T, i int, v T) []T {
	if len(s) == cap(s) {
		c := max(2*cap(s), 4)
		if c >= fanout {
			c = max(fanout+1, len(s)+1)
		}
		grown := make([]T, len(s), c)
		copy(grown, s)
		s = grown
	}
	s = s[:len(s)+1]
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// removeAt removes position i of s, clearing the vacated last slot.
func removeAt[T any](s []T, i int) []T {
	copy(s[i:], s[i+1:])
	var zero T
	s[len(s)-1] = zero
	return s[:len(s)-1]
}

// slice returns a fresh leaf holding keys [lo, hi) of n, every array sized
// exactly.
func (n *node) slice(lo, hi int) *node {
	bytes := 0
	for _, s := range n.spans[lo:hi] {
		bytes += int(s.n)
	}
	m := &node{
		leaf:  true,
		slab:  make([]byte, 0, bytes),
		spans: make([]span, hi-lo),
		first: append([]storage.RowID(nil), n.first[lo:hi]...),
	}
	for i, s := range n.spans[lo:hi] {
		m.spans[i] = span{uint32(len(m.slab)), s.n}
		m.slab = append(m.slab, n.slab[s.off:s.off+s.n]...)
	}
	for i := lo; i < hi; i++ {
		if len(n.moreRows(i)) > 0 {
			m.more = append([][]storage.RowID(nil), n.more[lo:hi]...)
			break
		}
	}
	return m
}

func (t *BTree) splitLeaf(n *node, th *hw.Thread) (Key, *node) {
	mid := len(n.spans) / 2
	left, right := n.slice(0, mid), n.slice(mid, len(n.spans))
	left.next, right.next = right, n.next
	*n = *left
	if th != nil {
		th.Alloc(float64(fanout) * (float64(t.keySize) + 16))
		th.SeqWrite(float64(len(right.spans)), float64(t.keySize)+16)
	}
	return bytes.Clone(right.key(0)), right
}

func (t *BTree) splitInternal(n *node, th *hw.Thread) (Key, *node) {
	mid := len(n.keys) / 2
	right := &node{
		keys:     append([]Key(nil), n.keys[mid:]...),
		children: append([]*node(nil), n.children[mid:]...),
	}
	sep := n.keys[mid]
	n.keys = n.keys[:mid]
	n.children = n.children[:mid]
	if th != nil {
		th.Alloc(float64(fanout) * (float64(t.keySize) + 16))
	}
	return sep, right
}

// Delete removes one (key,row) entry; when the posting list empties the key
// is removed (leaves are not rebalanced, as in many production trees that
// defer reclamation to compaction). It reports whether an entry was removed.
func (t *BTree) Delete(th *hw.Thread, k Key, row storage.RowID, contenders float64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if th != nil {
		th.Latch(contenders)
	}
	t.chargeDescent(th, 1)
	n := t.leafFor(k)
	i := n.find(k)
	if i < 0 {
		return false
	}
	removed, keyGone := n.removeRow(i, row)
	if !removed {
		return false
	}
	t.numRows--
	if keyGone {
		t.numKeys--
	}
	if th != nil {
		th.RandWrite(1, t.sizeBytesLocked())
	}
	return true
}

// removeRow removes row's first posting under leaf key i, keeping posting
// order, and the key with its last posting. It reports whether row was
// there and whether the key went.
func (n *node) removeRow(i int, row storage.RowID) (removed, keyGone bool) {
	more := n.moreRows(i)
	if n.first[i] != row {
		j := 0
		for j < len(more) && more[j] != row {
			j++
		}
		if j == len(more) {
			return false, false
		}
		more = removeAt(more, j)
	} else if len(more) > 0 {
		n.first[i] = more[0]
		more = removeAt(more, 0)
	} else {
		n.spans = removeAt(n.spans, i)
		n.first = removeAt(n.first, i)
		if n.more != nil {
			n.more = removeAt(n.more, i)
		}
		if len(n.spans) == 0 {
			n.slab = nil
		}
		return true, true
	}
	if len(more) == 0 {
		more = nil
	}
	n.more[i] = more
	return true, false
}
