package metrics

import (
	"sync"
	"testing"

	"mb2/internal/hw"
	"mb2/internal/ou"
)

// TestCollectorEmitDrainHammer hammers the Emit-vs-Drain contract under
// the race detector: several writers emit tagged records while a drainer
// concurrently empties the collector. Exactly-once delivery means every
// record surfaces in exactly one drain, and each writer's records stay in
// emission order across drains.
func TestCollectorEmitDrainHammer(t *testing.T) {
	const writers = 8
	const perWriter = 500

	c := NewCollector()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seq := 0; seq < perWriter; seq++ {
				c.Emit(ou.SeqScan,
					[]float64{float64(w), float64(seq)},
					hw.Metrics{ElapsedUS: 1})
			}
		}(w)
	}

	var drained []Record
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			drained = append(drained, c.Drain()...)
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-done
	drained = append(drained, c.Drain()...) // sweep the tail

	if got, want := len(drained), writers*perWriter; got != want {
		t.Fatalf("drained %d records, want %d (lost or duplicated)", got, want)
	}
	nextSeq := make([]int, writers)
	for i, r := range drained {
		w := int(r.Features[0])
		seq := int(r.Features[1])
		if w < 0 || w >= writers {
			t.Fatalf("record %d: bogus writer id %d", i, w)
		}
		if seq != nextSeq[w] {
			t.Fatalf("record %d: writer %d emitted seq %d out of order (want %d)",
				i, w, seq, nextSeq[w])
		}
		nextSeq[w]++
	}
	if rest := c.Drain(); len(rest) != 0 {
		t.Fatalf("collector still holds %d records after final drain", len(rest))
	}
}
