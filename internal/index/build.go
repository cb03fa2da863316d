package index

import (
	"math"
	"sort"

	"mb2/internal/catalog"
	"mb2/internal/hw"
	"mb2/internal/storage"
)

// Entry is one (key, row) pair fed to a bulk build.
type Entry struct {
	Key Key
	Row storage.RowID
}

// KeyFromTuple encodes the key columns of a tuple into a fresh key, for a
// caller that keeps it (a map key, a checker's entry). Every tree call
// copies or only compares its key, so writes and probes encode into a
// reusable scratch buffer with AppendKeyFromTuple instead.
func KeyFromTuple(t storage.Tuple, cols []int) Key {
	return AppendKeyFromTuple(make([]byte, 0, 8*len(cols)), t, cols)
}

// BuildResult describes what a bulk build cost. ElapsedUS is the
// wall-clock build time: the maximum single-thread elapsed time, per the
// paper's footnote 1 ("MB2 uses the max (instead of the sum) predicted
// elapsed time among each single-threaded invocation").
type BuildResult struct {
	PerThread []hw.Metrics
	ElapsedUS float64
	Total     hw.Metrics // summed across threads (resources are additive)
}

// BulkBuild constructs a B+tree over the entries using the given number of
// build threads. Each thread sorts and loads a shard of the key space;
// installing nodes into the shared tree takes latches whose cost grows with
// the thread count — the internal contention the index-build contending OU
// models (Sec 4.2). The returned per-thread metrics let callers derive both
// build time (max) and resource consumption (sum).
func BulkBuild(meta *catalog.IndexMeta, cpu hw.CPU, threads int, entries []Entry) (*BTree, BuildResult) {
	if threads < 1 {
		threads = 1
	}
	t := NewBTree(meta)
	n := len(entries)
	if n == 0 {
		return t, BuildResult{PerThread: make([]hw.Metrics, threads)}
	}
	t.keySize = len(entries[0].Key)

	// Global sort. The comparison work is split evenly across the build
	// threads (parallel sample sort); the merge is part of each shard load.
	sorted := make([]Entry, n)
	copy(sorted, entries)
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i].Key.Compare(sorted[j].Key) < 0
	})

	shards := splitEntries(sorted, threads)
	workers := make([]*hw.Thread, threads)
	perThread := make([]hw.Metrics, threads)
	keyBytes := float64(t.keySize)

	var allLeaves [][]*node
	for w := 0; w < threads; w++ {
		th := hw.NewThread(cpu)
		workers[w] = th
		start := th.Counters()
		shard := shards[w]
		sn := float64(len(shard))
		if sn > 0 {
			// Shard sort share: n/T * log2(n) comparisons plus the data
			// movement of reading inputs and writing sorted runs.
			th.Compute(sn * math.Log2(float64(n)+1) * 6)
			th.SeqRead(sn, keyBytes+16)
			th.SeqWrite(sn, keyBytes+16)
		}
		leaves := buildLeaves(t, th, shard, float64(threads))
		allLeaves = append(allLeaves, leaves)
		perThread[w] = th.Since(start)
	}

	// Stitch shard leaves together and build the internal levels (done by
	// the coordinating thread; cheap relative to leaf construction).
	coord := workers[0]
	start := coord.Counters()
	var leaves []*node
	for _, ls := range allLeaves {
		leaves = append(leaves, ls...)
	}
	for i := 0; i+1 < len(leaves); i++ {
		leaves[i].next = leaves[i+1]
	}
	t.root, t.height = buildInternal(coord, t, leaves)
	var coordExtra hw.Metrics = coord.Since(start)
	perThread[0].Add(coordExtra)

	res := BuildResult{PerThread: perThread}
	for _, m := range perThread {
		if m.ElapsedUS > res.ElapsedUS {
			res.ElapsedUS = m.ElapsedUS
		}
		res.Total.Add(m)
	}
	return t, res
}

// splitEntries partitions sorted entries into contiguous shards without
// splitting a key's duplicates across shards.
func splitEntries(sorted []Entry, threads int) [][]Entry {
	shards := make([][]Entry, threads)
	n := len(sorted)
	per := (n + threads - 1) / threads
	start := 0
	for w := 0; w < threads && start < n; w++ {
		end := start + per
		if end > n {
			end = n
		}
		// Extend to keep duplicate keys together.
		for end < n && sorted[end].Key.Equal(sorted[end-1].Key) {
			end++
		}
		shards[w] = sorted[start:end]
		start = end
	}
	return shards
}

// buildLeaves constructs the leaf level for one sorted shard, charging the
// work and per-node installation latches to th.
func buildLeaves(t *BTree, th *hw.Thread, shard []Entry, contenders float64) []*node {
	var leaves []*node
	keyBytes := float64(t.keySize)
	for len(shard) > 0 {
		cur, took := bulkLeaf(shard)
		shard = shard[took:]
		leaves = append(leaves, cur)
		th.Alloc(float64(bulkFill) * (keyBytes + 16))
		th.Latch(contenders) // install node into the shared tree
		for i := range cur.spans {
			rows := 1 + len(cur.moreRows(i))
			t.numKeys++
			t.numRows += rows
			// Each entry pays the concurrent-insert path of a production build:
			// key extraction and comparison work plus a descent through the
			// already-built portion of the tree (which is what makes large
			// builds memory-bound and expensive — the paper's builds run
			// minutes, ~10us/row/thread).
			built := float64(t.numRows) * (keyBytes + 16)
			for range rows {
				th.Compute(2000)
				th.RandRead(4, built, 1)
			}
			th.SeqWrite(float64(rows), keyBytes+16)
		}
	}
	return leaves
}

// bulkLeaf builds one leaf from the first bulkFill distinct keys of a sorted
// shard, every array sized exactly, and returns it with the number of
// entries it took. The rows after each key's first share one array.
func bulkLeaf(shard []Entry) (*node, int) {
	keys, bytes, dups, took := 0, 0, 0, 0
	for took < len(shard) && keys < bulkFill {
		k := shard[took].Key
		keys++
		bytes += len(k)
		for took++; took < len(shard) && shard[took].Key.Equal(k); took++ {
			dups++
		}
	}
	n := &node{
		leaf:  true,
		slab:  make([]byte, 0, bytes),
		spans: make([]span, 0, keys),
		first: make([]storage.RowID, 0, keys),
	}
	var rest []storage.RowID
	if dups > 0 {
		n.more = make([][]storage.RowID, keys)
		rest = make([]storage.RowID, 0, dups)
	}
	for i := 0; i < took; {
		k := shard[i].Key
		n.spans = append(n.spans, span{uint32(len(n.slab)), uint32(len(k))})
		n.slab = append(n.slab, k...)
		n.first = append(n.first, shard[i].Row)
		from := len(rest)
		for i++; i < took && shard[i].Key.Equal(k); i++ {
			rest = append(rest, shard[i].Row)
		}
		if len(rest) > from {
			n.more[len(n.spans)-1] = rest[from:len(rest):len(rest)]
		}
	}
	return n, took
}

// buildInternal builds the internal levels bottom-up and returns the root
// and tree height.
func buildInternal(th *hw.Thread, t *BTree, level []*node) (*node, int) {
	if len(level) == 0 {
		return &node{leaf: true}, 1
	}
	height := 1
	for len(level) > 1 {
		var up []*node
		for i := 0; i < len(level); i += fanout {
			end := i + fanout
			if end > len(level) {
				end = len(level)
			}
			parent := &node{}
			for _, child := range level[i:end] {
				parent.keys = append(parent.keys, child.minKey())
				parent.children = append(parent.children, child)
			}
			up = append(up, parent)
			th.Alloc(float64(fanout) * (float64(t.keySize) + 8))
			th.SeqWrite(float64(end-i), float64(t.keySize)+8)
		}
		level = up
		height++
	}
	return level[0], height
}
