package hw

import (
	"bytes"
	"errors"
	"testing"
)

func TestMemDeviceAppendResetContents(t *testing.T) {
	d := NewMemDevice()
	if _, err := d.Append([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Append([]byte("def")); err != nil {
		t.Fatal(err)
	}
	if got := d.Contents(); !bytes.Equal(got, []byte("abcdef")) {
		t.Fatalf("contents %q", got)
	}
	if d.Len() != 6 {
		t.Fatalf("len %d", d.Len())
	}
	// Views are the image from an offset on, none at or past the end; a
	// FaultDevice forwards them to what is durable.
	for off, want := range map[int]string{-1: "abcdef", 0: "abcdef", 4: "ef", 6: "", 9: ""} {
		if got := d.Views(nil, off); string(bytes.Join(got, nil)) != want || (want == "") != (len(got) == 0) {
			t.Fatalf("Views(%d) = %q, want %q", off, got, want)
		}
		if got := NewFaultDevice(d, NoFaults()).Views(nil, off); string(bytes.Join(got, nil)) != want {
			t.Fatalf("FaultDevice Views(%d) = %q, want %q", off, got, want)
		}
	}
	// A view is capped at its own bytes, and neither a later append nor a
	// reset changes what it reads.
	views := d.Views([][]byte{[]byte("kept")}, 4)
	if len(views) != 2 || string(views[0]) != "kept" || cap(views[1]) != len(views[1]) {
		t.Fatalf("Views appended %q (cap %d) to dst", views, cap(views[len(views)-1]))
	}
	if _, err := d.Append([]byte("ghi")); err != nil {
		t.Fatal(err)
	}
	if err := d.Reset([]byte("xy")); err != nil {
		t.Fatal(err)
	}
	if string(views[1]) != "ef" {
		t.Fatalf("a view reads %q after an append and a reset, want %q", views[1], "ef")
	}
	if got := d.Contents(); !bytes.Equal(got, []byte("xy")) {
		t.Fatalf("after reset: %q", got)
	}
	// Contents must be a copy, not an alias.
	c := d.Contents()
	c[0] = 'Z'
	if d.Contents()[0] != 'x' {
		t.Fatal("Contents aliases internal buffer")
	}
}

// The image's chunks fall at fixed offsets: the same bytes written in pieces
// of any size read back the same and occupy chunks of the same capacities,
// and no append moves a byte already written (the first chunk's storage is
// still the first chunk's after megabytes more).
func TestMemDeviceLayoutIgnoresWriteSizes(t *testing.T) {
	img := make([]byte, 3<<20+12345)
	for i := range img {
		img[i] = byte(i*7 + i>>9)
	}
	var layouts [][]int
	for _, piece := range []int{1 << 30, 1 << 20, 87_001, 4097, 333} {
		d := NewMemDevice()
		var first *byte
		for off := 0; off < len(img); off += piece {
			if _, err := d.Append(img[off:min(off+piece, len(img))]); err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = &d.chunks[0][0]
			}
		}
		if first != &d.chunks[0][0] {
			t.Fatalf("pieces of %d: the first chunk moved", piece)
		}
		if d.Len() != len(img) || !bytes.Equal(d.Contents(), img) {
			t.Fatalf("pieces of %d: image differs", piece)
		}
		for _, off := range []int{-1, 0, 1, memChunkMin - 1, memChunkMin, 2 * memChunkMin, memChunkMax + 1, len(img) - 1} {
			if got := bytes.Join(d.Views(nil, off), nil); !bytes.Equal(got, img[max(off, 0):]) {
				t.Fatalf("pieces of %d: Views(%d) differs", piece, off)
			}
		}
		var caps []int
		total := 0
		for _, c := range d.chunks {
			caps = append(caps, cap(c))
			total += cap(c)
		}
		if total-len(img) > memChunkMax {
			t.Fatalf("pieces of %d: %d bytes held for an image of %d", piece, total, len(img))
		}
		layouts = append(layouts, caps)
	}
	for i, l := range layouts[1:] {
		if len(l) != len(layouts[0]) {
			t.Fatalf("layout %d has %d chunks, layout 0 has %d", i+1, len(l), len(layouts[0]))
		}
		for j := range l {
			if l[j] != layouts[0][j] {
				t.Fatalf("layout %d chunk %d holds %d, layout 0's holds %d", i+1, j, l[j], layouts[0][j])
			}
		}
	}
	// A Reset starts the layout over.
	d := NewMemDevice()
	d.Append(img)
	if err := d.Reset(img[:10]); err != nil {
		t.Fatal(err)
	}
	if len(d.chunks) != 1 || cap(d.chunks[0]) != memChunkMin || !bytes.Equal(d.Contents(), img[:10]) {
		t.Fatalf("after Reset: %d chunks, image %q", len(d.chunks), d.Contents())
	}
}

func TestFaultDeviceCrashTearsAtByte(t *testing.T) {
	plan := NoFaults()
	plan.CrashAtByte = 5
	d := NewFaultDevice(nil, plan)
	if _, err := d.Append([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	n, err := d.Append([]byte("defg"))
	if !errors.Is(err, ErrDeviceCrashed) {
		t.Fatalf("err = %v", err)
	}
	if n != 2 {
		t.Fatalf("torn write made %d bytes durable, want 2", n)
	}
	if got := d.Contents(); !bytes.Equal(got, []byte("abcde")) {
		t.Fatalf("durable image %q, want abcde", got)
	}
	if !d.Crashed() {
		t.Fatal("device must report crashed")
	}
	// Dead forever.
	if _, err := d.Append([]byte("z")); !errors.Is(err, ErrDeviceCrashed) {
		t.Fatalf("post-crash append err = %v", err)
	}
	if err := d.Reset(nil); !errors.Is(err, ErrDeviceCrashed) {
		t.Fatalf("post-crash reset err = %v", err)
	}
}

func TestFaultDeviceCrashAtZeroLosesEverything(t *testing.T) {
	plan := NoFaults()
	plan.CrashAtByte = 0
	d := NewFaultDevice(nil, plan)
	n, err := d.Append([]byte("abc"))
	if !errors.Is(err, ErrDeviceCrashed) || n != 0 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if d.Len() != 0 {
		t.Fatal("nothing may be durable")
	}
}

func TestFaultDeviceTransientEvery(t *testing.T) {
	plan := NoFaults()
	plan.TransientEvery = 3
	d := NewFaultDevice(nil, plan)
	fails := 0
	for i := 0; i < 9; i++ {
		if _, err := d.Append([]byte("x")); err != nil {
			if !errors.Is(err, ErrTransientWrite) {
				t.Fatalf("attempt %d: %v", i, err)
			}
			fails++
		}
	}
	if fails != 3 {
		t.Fatalf("%d transient failures in 9 attempts, want 3", fails)
	}
	// Failed attempts wrote nothing.
	if d.Len() != 6 {
		t.Fatalf("durable %d bytes, want 6", d.Len())
	}
}

func TestFaultDeviceDropFromAppend(t *testing.T) {
	plan := NoFaults()
	plan.DropFromAppend = 2
	d := NewFaultDevice(nil, plan)
	for i := 0; i < 4; i++ {
		if _, err := d.Append([]byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Appends 0 and 1 land; 2 and 3 report success but are lost.
	if got := d.Contents(); !bytes.Equal(got, []byte("ab")) {
		t.Fatalf("durable image %q, want ab", got)
	}
}

func TestFaultDeviceFlipBit(t *testing.T) {
	plan := NoFaults()
	plan.FlipBitAtByte = 3
	plan.FlipBitMask = 0x01
	d := NewFaultDevice(nil, plan)
	if _, err := d.Append([]byte("aa")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Append([]byte("bb")); err != nil {
		t.Fatal(err)
	}
	if got := d.Contents(); !bytes.Equal(got, []byte("aab"+string(rune('b'^0x01)))) {
		t.Fatalf("durable image %q", got)
	}
}

func TestFaultDeviceResetCrashKeepsOldContents(t *testing.T) {
	plan := NoFaults()
	plan.CrashAtByte = 2
	d := NewFaultDevice(nil, plan)
	plan2 := NoFaults()
	plan2.CrashAtByte = 10
	d2 := NewFaultDevice(nil, plan2)
	for _, dev := range []*FaultDevice{d, d2} {
		if _, err := dev.Append([]byte("a")); err != nil {
			t.Fatal(err)
		}
	}
	// Reset rearms the schedule, so the replacement image is judged against
	// the crash offset from byte 0: a crash point inside it kills the device
	// with the old contents intact (the atomic segment switch never happens).
	if err := d.Reset([]byte("XYZ")); !errors.Is(err, ErrDeviceCrashed) {
		t.Fatalf("reset err = %v", err)
	}
	if got := d.Contents(); !bytes.Equal(got, []byte("a")) {
		t.Fatalf("old contents must survive a torn reset, got %q", got)
	}
	// A crash offset beyond the replacement image lets the switch happen.
	if err := d2.Reset([]byte("XYZ")); err != nil {
		t.Fatal(err)
	}
	if got := d2.Contents(); !bytes.Equal(got, []byte("XYZ")) {
		t.Fatalf("reset image %q", got)
	}
}

// Regression for the crash-then-Reset sequencing bug: fault counters (the
// TransientEvery attempt counter, the cumulative byte offset, the append
// index) used to survive Reset, so "replaying the same seed" on a Reset
// device saw its transient failures and bit flips land at different points
// than the first run — two identical seeded runs diverged. All counters now
// rearm with the device: both runs must produce byte-identical images and
// identical error sequences.
func TestFaultDeviceResetReplaysIdentically(t *testing.T) {
	plan := NoFaults()
	plan.TransientEvery = 3
	plan.FlipBitAtByte = 5
	plan.FlipBitMask = 0x01
	d := NewFaultDevice(nil, plan)
	run := func() (img []byte, errs []error) {
		for i := 0; i < 8; i++ {
			_, err := d.Append([]byte{byte('a' + i), byte('A' + i)})
			errs = append(errs, err)
		}
		return d.Contents(), errs
	}
	img1, errs1 := run()
	if err := d.Reset(nil); err != nil {
		t.Fatal(err)
	}
	img2, errs2 := run()
	if !bytes.Equal(img1, img2) {
		t.Fatalf("same seed after Reset diverged: %q vs %q", img1, img2)
	}
	for i := range errs1 {
		if !errors.Is(errs2[i], errs1[i]) && (errs1[i] != nil || errs2[i] != nil) {
			t.Fatalf("append %d: run 1 err %v, run 2 err %v", i, errs1[i], errs2[i])
		}
	}
	// The transient failures must actually have fired in both runs.
	var fails int
	for _, err := range errs1 {
		if errors.Is(err, ErrTransientWrite) {
			fails++
		}
	}
	if fails == 0 {
		t.Fatal("plan produced no transient failures; regression has no teeth")
	}
}

func TestFaultDeviceDeterministicReplay(t *testing.T) {
	run := func() []byte {
		plan := NoFaults()
		plan.CrashAtByte = 10
		plan.TransientEvery = 2
		d := NewFaultDevice(nil, plan)
		for {
			if _, err := d.Append([]byte("0123")); err != nil && errors.Is(err, ErrDeviceCrashed) {
				break
			}
		}
		return d.Contents()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("same plan, same writes, different images: %q vs %q", a, b)
	}
	if len(a) != 10 {
		t.Fatalf("crash at byte 10 left %d durable bytes", len(a))
	}
}
