package exec

import (
	"math/rand"
	"strings"
	"testing"

	"mb2/internal/storage"
)

// TestWidthLogSampledMatchesPerRow: a widthLog's sampled width is, bit for
// bit, the AvgWidth of a Batch holding rows of the recorded widths, for
// lengths on both sides of the sampling step's boundaries (n/64+1 changes at
// 64) and for long runs of equal width as well as widths that change every
// row.
func TestWidthLogSampledMatchesPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lengths := []int{0, 1, 2, 63, 64, 65, 127, 128, 129, 200, 4095, 10000}
	for trial := 0; trial < 40; trial++ {
		lengths = append(lengths, rng.Intn(3000))
	}
	for _, n := range lengths {
		for _, pattern := range []string{"constant", "every row", "long runs", "short runs"} {
			widths := make([]int, n)
			w := 1 + rng.Intn(40)
			for i := range widths {
				switch pattern {
				case "every row":
					w = 1 + rng.Intn(40)
				case "long runs":
					if rng.Intn(500) == 0 {
						w = 1 + rng.Intn(40)
					}
				case "short runs":
					if rng.Intn(3) == 0 {
						w = 1 + rng.Intn(4)
					}
				}
				widths[i] = w
			}
			var log widthLog
			rows := make([]storage.Tuple, n)
			for i, w := range widths {
				log.add(w)
				rows[i] = storage.Tuple{storage.NewString(strings.Repeat("x", w))}
			}
			want := (&Batch{Rows: rows}).AvgWidth()
			if got := log.sampled(); got != want || log.n != n {
				t.Fatalf("%s, %d rows: sampled %v over %d rows, AvgWidth %v", pattern, n, got, log.n, want)
			}
		}
	}
}
