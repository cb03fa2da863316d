package server

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	cases := []Frame{
		{Type: MsgHello},
		{Type: MsgQuery, Payload: []byte("SELECT 1")},
		{Type: MsgRows, Payload: bytes.Repeat([]byte{0xAB}, 1000)},
	}
	var buf []byte
	for _, f := range cases {
		buf = AppendFrame(buf, f)
	}
	rest := buf
	for i, want := range cases {
		got, n, err := DecodeFrame(rest)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: round trip mismatch", i)
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
}

func TestFrameStreamRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := []Frame{
		{Type: MsgHello},
		{Type: MsgQuery, Payload: []byte("SELECT * FROM kv")},
	}
	for _, f := range want {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for i, w := range want {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != w.Type || !bytes.Equal(got.Payload, w.Payload) {
			t.Fatalf("frame %d: mismatch", i)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("expected EOF at stream end, got %v", err)
	}
}

func TestDecodeFrameRejectsCorruption(t *testing.T) {
	good := AppendFrame(nil, Frame{Type: MsgQuery, Payload: []byte("SELECT 1")})

	check := func(name string, mutate func([]byte), want error) {
		t.Helper()
		b := append([]byte(nil), good...)
		mutate(b)
		if _, _, err := DecodeFrame(b); !errors.Is(err, want) {
			t.Fatalf("%s: got %v, want %v", name, err, want)
		}
		if _, err := ReadFrame(bytes.NewReader(b)); !errors.Is(err, want) {
			t.Fatalf("%s via reader: got %v, want %v", name, err, want)
		}
	}
	check("bad magic", func(b []byte) { b[0] = 0x00 }, ErrFrameMagic)
	check("bad version", func(b []byte) { b[1] = 99 }, ErrFrameVersion)
	check("reserved set", func(b []byte) { b[3] = 1 }, ErrFrameReserved)
	check("payload flip", func(b []byte) { b[HeaderSize] ^= 0x01 }, ErrFrameCRC)
	check("type flip", func(b []byte) { b[2] ^= 0x01 }, ErrFrameCRC)
	check("crc flip", func(b []byte) { b[8] ^= 0x01 }, ErrFrameCRC)

	if _, _, err := DecodeFrame(good[:HeaderSize-1]); !errors.Is(err, ErrFrameTruncated) {
		t.Fatalf("short header: got %v", err)
	}
	if _, _, err := DecodeFrame(good[:len(good)-1]); !errors.Is(err, ErrFrameTruncated) {
		t.Fatalf("short payload: got %v", err)
	}

	// A stream that ends inside a frame is truncated wherever it ends —
	// header or payload — and only a stream that ends between frames is a
	// clean EOF.
	for _, cut := range []int{1, 5, HeaderSize - 1, HeaderSize, HeaderSize + 2, len(good) - 1} {
		_, err := ReadFrame(bytes.NewReader(good[:cut]))
		if !errors.Is(err, ErrFrameTruncated) || !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("stream cut at byte %d: got %v, want ErrFrameTruncated wrapping io.ErrUnexpectedEOF", cut, err)
		}
	}
	if _, err := ReadFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream: got %v, want io.EOF", err)
	}
}

func TestDecodePrefixStopsAtCorruption(t *testing.T) {
	var buf []byte
	buf = AppendFrame(buf, Frame{Type: MsgHello})
	buf = AppendFrame(buf, Frame{Type: MsgQuery, Payload: []byte("SELECT 1")})
	cut := len(buf)
	buf = AppendFrame(buf, Frame{Type: MsgClose})
	buf[cut+HeaderSize-1] ^= 0xFF // corrupt the third frame's CRC

	frames, consumed, reason := DecodePrefix(buf)
	if len(frames) != 2 || consumed != cut {
		t.Fatalf("got %d frames, %d consumed; want 2 frames, %d", len(frames), consumed, cut)
	}
	if reason == "" {
		t.Fatal("expected a stop reason on corrupted tail")
	}
	// The consumed prefix re-encodes byte-identically.
	var re []byte
	for _, f := range frames {
		re = AppendFrame(re, f)
	}
	if !bytes.Equal(re, buf[:consumed]) {
		t.Fatal("consumed prefix did not re-encode identically")
	}
}

func TestWriteFrameRejectsOversizedPayload(t *testing.T) {
	var buf bytes.Buffer
	err := WriteFrame(&buf, Frame{Type: MsgQuery, Payload: make([]byte, MaxPayload+1)})
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
}
