package index

import (
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

type node struct {
	leaf     bool
	keys     []Key
	children []*node           // internal nodes
	rows     [][]storage.RowID // leaf postings (duplicates allowed)
	next     *node             // leaf sibling chain
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

func searchNode(n *node, k Key) int {
	return sort.Search(len(n.keys), func(i int) bool { return n.keys[i].Compare(k) >= 0 })
}

// childIndex returns the child to descend into for key k under the
// convention that keys[i] is the minimum key of children[i].
func childIndex(n *node, k Key) int {
	i := searchNode(n, k)
	if i == len(n.keys) || n.keys[i].Compare(k) > 0 {
		if i > 0 {
			i--
		}
	}
	return i
}

// SearchEQ returns all rows indexed under the key. loops conveys whether the
// lookup is part of a hot loop (index nested-loop joins), which warms the
// cache (the paper's sixth execution-OU feature).
func (t *BTree) SearchEQ(th *hw.Thread, k Key, loops float64) []storage.RowID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.chargeDescent(th, loops)
	n := t.root
	for !n.leaf {
		n = n.children[childIndex(n, k)]
	}
	i := searchNode(n, k)
	if i < len(n.keys) && n.keys[i].Equal(k) {
		out := make([]storage.RowID, len(n.rows[i]))
		copy(out, n.rows[i])
		return out
	}
	return nil
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
	n := t.root
	for !n.leaf {
		n = n.children[childIndex(n, k)]
	}
	i := searchNode(n, k)
	if i >= len(n.keys) || !n.keys[i].Equal(k) {
		return 0
	}
	visited := 0
	for _, r := range n.rows[i] {
		visited++
		if !fn(r) {
			break
		}
	}
	return visited
}

// SearchRange calls fn for every entry with lo <= key <= hi, in key order,
// until fn returns false. It returns the number of entries visited.
func (t *BTree) SearchRange(th *hw.Thread, lo, hi Key, fn func(Key, storage.RowID) bool) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.chargeDescent(th, 1)
	n := t.root
	for !n.leaf {
		n = n.children[childIndex(n, lo)]
	}
	visited := 0
	for n != nil {
		for i := range n.keys {
			if n.keys[i].Compare(lo) < 0 {
				continue
			}
			if hi != nil && n.keys[i].Compare(hi) > 0 {
				t.chargeLeafScan(th, visited)
				return visited
			}
			for _, r := range n.rows[i] {
				visited++
				if !fn(n.keys[i], r) {
					t.chargeLeafScan(th, visited)
					return visited
				}
			}
		}
		n = n.next
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
// concurrently mutating the index; it scales the latch charge.
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

func (n *node) minKey() Key {
	for !n.leaf {
		n = n.children[0]
	}
	if len(n.keys) == 0 {
		return nil
	}
	return n.keys[0]
}

// insertRec inserts into the subtree and returns a promoted separator key
// and new right sibling when the child split.
func (t *BTree) insertRec(n *node, k Key, row storage.RowID, th *hw.Thread) (Key, *node) {
	if n.leaf {
		i := searchNode(n, k)
		if i < len(n.keys) && n.keys[i].Equal(k) {
			n.rows[i] = append(n.rows[i], row)
			t.numRows++
			if th != nil {
				th.RandWrite(1, t.sizeBytesLocked())
			}
			return nil, nil
		}
		n.keys = append(n.keys, nil)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = k
		n.rows = append(n.rows, nil)
		copy(n.rows[i+1:], n.rows[i:])
		n.rows[i] = []storage.RowID{row}
		t.numKeys++
		t.numRows++
		if th != nil {
			th.RandWrite(1, t.sizeBytesLocked())
			th.Alloc(float64(len(k)) + 16)
		}
		if len(n.keys) > fanout {
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

func (t *BTree) splitLeaf(n *node, th *hw.Thread) (Key, *node) {
	mid := len(n.keys) / 2
	right := &node{
		leaf: true,
		keys: append([]Key(nil), n.keys[mid:]...),
		rows: append([][]storage.RowID(nil), n.rows[mid:]...),
		next: n.next,
	}
	n.keys = n.keys[:mid]
	n.rows = n.rows[:mid]
	n.next = right
	if th != nil {
		th.Alloc(float64(fanout) * (float64(t.keySize) + 16))
		th.SeqWrite(float64(len(right.keys)), float64(t.keySize)+16)
	}
	return right.keys[0], right
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
	n := t.root
	for !n.leaf {
		n = n.children[childIndex(n, k)]
	}
	i := searchNode(n, k)
	if i >= len(n.keys) || !n.keys[i].Equal(k) {
		return false
	}
	for j, r := range n.rows[i] {
		if r == row {
			n.rows[i] = append(n.rows[i][:j], n.rows[i][j+1:]...)
			t.numRows--
			if len(n.rows[i]) == 0 {
				n.keys = append(n.keys[:i], n.keys[i+1:]...)
				n.rows = append(n.rows[:i], n.rows[i+1:]...)
				t.numKeys--
			}
			if th != nil {
				th.RandWrite(1, t.sizeBytesLocked())
			}
			return true
		}
	}
	return false
}
