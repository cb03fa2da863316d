package index

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"mb2/internal/storage"
)

// FuzzEncodeKey checks the order-preservation contract of the key encoding:
// for any two tuples of (int, float, string) columns, comparing the encoded
// keys bytewise must agree with comparing the tuples column-wise. NaN is
// skipped (Value.Compare treats NaN as equal-to-everything, which no total
// byte order can honor) and -0.0 is normalized to +0.0 (they are equal as
// floats but have distinct bit patterns).
func FuzzEncodeKey(f *testing.F) {
	f.Add(int64(0), 0.0, "", int64(0), 0.0, "")
	f.Add(int64(-1), 1.5, "a", int64(1), -1.5, "b")
	f.Add(int64(math.MinInt64), math.Inf(-1), "a\x00b", int64(math.MaxInt64), math.Inf(1), "a\x00")
	f.Add(int64(42), -0.0, "cust-000001", int64(42), 0.0, "cust-0000010")
	f.Add(int64(7), 1e-300, "\xff\xff", int64(7), -1e-300, "\xff")
	f.Fuzz(func(t *testing.T, i1 int64, f1 float64, s1 string, i2 int64, f2 float64, s2 string) {
		if math.IsNaN(f1) || math.IsNaN(f2) {
			t.Skip("NaN has no position in a total order")
		}
		if f1 == 0 {
			f1 = 0 // collapse -0.0 and +0.0
		}
		if f2 == 0 {
			f2 = 0
		}
		a := storage.Tuple{storage.NewInt(i1), storage.NewFloat(f1), storage.NewString(s1)}
		b := storage.Tuple{storage.NewInt(i2), storage.NewFloat(f2), storage.NewString(s2)}
		want := 0
		for i := range a {
			if c := a[i].Compare(b[i]); c != 0 {
				want = c
				break
			}
		}
		ka := EncodeKey(a...)
		kb := EncodeKey(b...)
		got := ka.Compare(kb)
		if sign(got) != sign(want) {
			t.Fatalf("EncodeKey order mismatch: tuples compare %d, keys compare %d\na=%v\nb=%v\nka=%x\nkb=%x",
				want, got, a, b, ka, kb)
		}
		if (want == 0) != ka.Equal(kb) {
			t.Fatalf("EncodeKey equality mismatch: tuples compare %d, keys equal=%t", want, ka.Equal(kb))
		}
	})
}

func sign(v int) int {
	switch {
	case v < 0:
		return -1
	case v > 0:
		return 1
	}
	return 0
}

// FuzzBTree drives a tree with insert, delete, duplicate-posting and range
// operations against a sorted model, checking after every operation the
// tree's invariants, that no internal separator shares a leaf's slab, the
// operated key's postings in order, and every range read against the model.
// Keys vary in length, so leaf slabs fill, compact and split unevenly. Each
// operation is three input bytes: opcode, key, row (or the range's upper
// key).
func FuzzBTree(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0, 2, 2, 1, 1, 1, 3, 0, 255})
	f.Add([]byte{2, 7, 1, 2, 7, 2, 2, 7, 3, 1, 7, 2, 1, 7, 1, 3, 0, 255})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const maxOps = 400
		tr := NewBTree(meta())
		model := make(map[string][]storage.RowID)
		key := func(b byte) Key {
			return EncodeKey(storage.NewInt(int64(b>>3)), storage.NewString(strings.Repeat("k", int(b&7))))
		}
		for op := 0; op+2 < len(ops) && op < 3*maxOps; op += 3 {
			code, k, arg := ops[op]%4, key(ops[op+1]), ops[op+2]
			row := storage.RowID(arg)
			switch code {
			case 0: // insert, from a scratch buffer the tree must copy
				scratch := append([]byte(nil), k...)
				tr.Insert(nil, scratch, row, 1)
				for i := range scratch {
					scratch[i] = 0xEE
				}
				model[string(k)] = append(model[string(k)], row)
			case 1: // delete one posting
				rows := model[string(k)]
				j := slices.Index(rows, row)
				if got := tr.Delete(nil, k, row, 1); got != (j >= 0) {
					t.Fatalf("op %d: Delete(%x, %d) = %t, model has it: %t", op/3, k, row, got, j >= 0)
				}
				if j >= 0 {
					if rows = slices.Delete(rows, j, j+1); len(rows) == 0 {
						delete(model, string(k))
					} else {
						model[string(k)] = rows
					}
				}
			case 2: // another posting under a key the tree may already hold
				tr.Insert(nil, k, row+1000, 1)
				model[string(k)] = append(model[string(k)], row+1000)
			case 3: // range read
				hi := key(arg)
				var got []string
				tr.SearchRange(nil, k, hi, func(gk Key, r storage.RowID) bool {
					got = append(got, fmt.Sprintf("%x/%d", gk, r))
					return true
				})
				var want []string
				for _, mk := range sortedKeys(model) {
					if bytes.Compare([]byte(mk), k) >= 0 && bytes.Compare([]byte(mk), hi) <= 0 {
						for _, r := range model[mk] {
							want = append(want, fmt.Sprintf("%x/%d", mk, r))
						}
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("op %d: range [%x, %x] read %v, model %v", op/3, k, hi, got, want)
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("op %d (code %d): %v", op/3, code, err)
			}
			if err := separatorsOwned(tr); err != nil {
				t.Fatalf("op %d (code %d): %v", op/3, code, err)
			}
			if got, want := tr.SearchEQ(nil, k, 1), model[string(k)]; !slices.Equal(got, want) {
				t.Fatalf("op %d: postings of %x are %v, model %v", op/3, k, got, want)
			}
		}
		rows := 0
		for _, rs := range model {
			rows += len(rs)
		}
		if tr.NumKeys() != len(model) || tr.NumRows() != rows {
			t.Fatalf("counts: keys %d/%d rows %d/%d", tr.NumKeys(), len(model), tr.NumRows(), rows)
		}
	})
}

func sortedKeys(m map[string][]storage.RowID) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// separatorsOwned reports an internal separator whose bytes lie inside a
// leaf's slab: separators are the internal node's own copies, so that no
// internal node pins a leaf slab.
func separatorsOwned(tr *BTree) error {
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	var slabs [][2]uintptr
	var seps []Key
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf {
			if cap(n.slab) > 0 {
				p := uintptr(unsafe.Pointer(unsafe.SliceData(n.slab)))
				slabs = append(slabs, [2]uintptr{p, p + uintptr(cap(n.slab))})
			}
			return
		}
		seps = append(seps, n.keys...)
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(tr.root)
	for _, k := range seps {
		if cap(k) == 0 {
			continue
		}
		p := uintptr(unsafe.Pointer(unsafe.SliceData(k)))
		for _, s := range slabs {
			if p >= s[0] && p < s[1] {
				return fmt.Errorf("separator %x lies inside a leaf slab", k)
			}
		}
	}
	return nil
}
