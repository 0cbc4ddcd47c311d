package core

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestPairQueueHandsOutEachPairOnce drains the pair queue the way
// verifyRows does — fanOut workers, the calling goroutine alone for one,
// each taking pairs until the queue runs dry — over verify lists of the
// shapes that stress it: one long row, many one-pair rows, totals either
// side of minFanOut, and more workers than rows. Every listed pair must
// be handed out exactly once, so each row gets as many verifier calls as
// its list holds. One worker must meet the rows largest first.
func TestPairQueueHandsOutEachPairOnce(t *testing.T) {
	many := make([]int, 200)
	for i := range many {
		many[i] = 1
	}
	for _, tc := range []struct {
		name    string
		sizes   []int
		workers int // Options.Workers
		fanOut  int // the workers fanOut grants
	}{
		{"one row of many pairs", []int{1000}, 4, 4},
		{"many rows of one pair", many, 4, 4},
		{"31 pairs", []int{7, 0, 24}, 4, 1},
		{"32 pairs", []int{8, 0, 24}, 4, 4},
		{"more workers than rows", []int{40, 0, 3, 17}, 8, 8},
		{"more workers than pairs", []int{33}, 64, 33},
		{"nothing to verify", []int{0, 0}, 4, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			total := 0
			for _, n := range tc.sizes {
				total += n
			}
			workers := fanOut(total, tc.workers)
			if workers != tc.fanOut {
				t.Fatalf("fanOut(%d, %d) = %d, want %d", total, tc.workers, workers, tc.fanOut)
			}
			states := make([]vcpRowState, len(tc.sizes))
			taken := make([][]atomic.Int32, len(tc.sizes)) // per pair
			calls := make([]atomic.Int64, len(tc.sizes))   // per row
			for i, n := range tc.sizes {
				states[i].verify = make([]int32, n)
				taken[i] = make([]atomic.Int32, n)
			}
			q := newPairQueue(states)
			var visits []int // rows in the order a lone worker meets them
			drain := func() {
				for row := -1; ; {
					r, lo, hi := q.take(row)
					if r < 0 {
						return
					}
					if r != row && workers == 1 {
						visits = append(visits, r)
					}
					row = r
					calls[r].Add(int64(hi - lo))
					for j := lo; j < hi; j++ {
						taken[r][j].Add(1)
					}
				}
			}
			var wg sync.WaitGroup
			for range workers - 1 {
				wg.Add(1)
				go func() { defer wg.Done(); drain() }()
			}
			if workers > 0 {
				drain()
			}
			wg.Wait()
			for i, row := range taken {
				if n := calls[i].Load(); n != int64(tc.sizes[i]) {
					t.Errorf("row %d: %d calls for %d listed pairs", i, n, tc.sizes[i])
				}
				for j := range row {
					if n := row[j].Load(); n != 1 {
						t.Fatalf("row %d pair %d handed out %d times", i, j, n)
					}
				}
			}
			if workers == 1 && !slices.IsSortedFunc(visits, func(a, b int) int { return tc.sizes[b] - tc.sizes[a] }) {
				t.Errorf("one worker met rows %v, not largest first (sizes %v)", visits, tc.sizes)
			}
		})
	}
}
