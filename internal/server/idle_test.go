package server

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// TestIdleSessionsPinNoResult: 500 wire sessions that each ran a 20-row
// select and went idle hold less than 16 KiB of heap apiece. The server
// releases a result as soon as it has answered with it, so an idle session
// keeps no arena chunk — one would be 128 KiB, 62.5 MiB over the 500.
func TestIdleSessionsPinNoResult(t *testing.T) {
	const sessions, perSession = 500, 16 << 10
	tr := NewPipe()
	startServer(t, tr, Config{})
	admin, err := Dial(tr)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	values := make([]string, 100)
	for i := range values {
		values[i] = fmt.Sprintf("(%d, %d)", i, 10*i)
	}
	for _, q := range []string{"CREATE TABLE acct (id INT, bal INT)", "INSERT INTO acct VALUES " + strings.Join(values, ", ")} {
		if _, err := admin.Query(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	// The least of three readings, each after two collections (the second
	// empties the pools' victim caches): a connection goroutine still
	// finishing its reply can hold transient garbage through one reading,
	// while a pinned chunk shows in all three.
	heapAlloc := func() int64 {
		least := int64(-1)
		for range 3 {
			runtime.GC()
			runtime.GC()
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			if least < 0 || int64(m.HeapAlloc) < least {
				least = int64(m.HeapAlloc)
			}
		}
		return least
	}
	before := heapAlloc()
	clients := make([]*Client, sessions)
	for i := range clients {
		cl, err := Dial(tr)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		clients[i] = cl
		// A projection: every result row is carved from the session's arena.
		if r, err := cl.Query(fmt.Sprintf("SELECT id + %d, bal FROM acct WHERE id < 20", i)); err != nil || r.Count != 20 {
			t.Fatalf("session %d: %+v, %v", i, r, err)
		}
	}
	grown := heapAlloc() - before
	t.Logf("%d idle sessions: %d B of heap, %d B each", sessions, grown, grown/sessions)
	if grown >= sessions*perSession {
		t.Fatalf("%d idle sessions hold %d B of heap, want less than %d B each", sessions, grown, perSession)
	}
}
