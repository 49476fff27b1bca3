package graphkeys

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"graphkeys/internal/testutil"
)

// TestConcurrentApplyBatchOverlappingComponents is the repair pass's
// stress test: several goroutines push ApplyBatch batches whose deltas
// reach into the neighboring group — so the merged repair regions
// overlap chain-wise across every group — while readers hammer
// Same/Result mid-repair. What runs concurrently inside a pass is the
// graph mutation of a batch's deltas and the region and partner scans
// that seed the re-chase; the deltas are add-only and therefore commute,
// so the final state must be exactly what serial application of the
// same deltas reaches, at every repair parallelism. Run under -race by
// the CI race job.
func TestConcurrentApplyBatchOverlappingComponents(t *testing.T) {
	const writers = 4
	const rounds = 5
	const perBatch = 3

	for _, p := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			gen := testutil.New(testutil.Config{Seed: int64(40 + p), Groups: writers, PerGroup: 8})
			g, ks := batchFixture(t, gen)
			m, err := NewMatcher(g, ks, Options{Parallelism: p})
			if err != nil {
				t.Fatal(err)
			}

			batch := func(w, round int) []*Delta {
				ds := make([]*Delta, perBatch)
				for i := range ds {
					ds[i] = wrapDelta(gen.AddOnly(w, round*perBatch+i))
				}
				return ds
			}

			var stop atomic.Bool
			var readers sync.WaitGroup
			for r := 0; r < 2; r++ {
				readers.Add(1)
				go func(r int) {
					defer readers.Done()
					for i := 0; !stop.Load(); i++ {
						a := fmt.Sprintf("g%d-p%d", (r+i)%writers, i%8)
						b := fmt.Sprintf("g%d-p%d", (r+i)%writers, (i+3)%8)
						_ = m.Same(a, b)
						if i%7 == 0 {
							_ = m.Result()
						}
					}
				}(r)
			}
			var wg sync.WaitGroup
			errs := make([]error, writers)
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for round := 0; round < rounds; round++ {
						if _, _, err := m.ApplyBatch(batch(w, round)); err != nil {
							errs[w] = err
							return
						}
					}
				}(w)
			}
			wg.Wait()
			stop.Store(true)
			readers.Wait()
			for w, err := range errs {
				if err != nil {
					t.Fatalf("writer %d: %v", w, err)
				}
			}

			// Serial reference: same deltas one at a time (add-only, so
			// any interleaving reaches this state).
			sg, _ := batchFixture(t, gen)
			sm, err := NewMatcher(sg, ks, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for w := 0; w < writers; w++ {
				for round := 0; round < rounds; round++ {
					for _, d := range batch(w, round) {
						if _, _, err := sm.Apply(d); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			var got, want bytes.Buffer
			if err := m.Graph().Write(&got); err != nil {
				t.Fatal(err)
			}
			if err := sm.Graph().Write(&want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatal("concurrent batched graph diverges from serial application")
			}
			if !reflect.DeepEqual(sortedPairs(m.Result().Matches), sortedPairs(sm.Result().Matches)) {
				t.Fatal("concurrent batched pairs diverge from serial application")
			}
			// And the usual differential closure against a full re-chase.
			full, err := Match(m.Graph(), ks, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(m.Result().Matches, full.Matches) {
				t.Fatal("matcher state diverges from full re-chase")
			}
		})
	}
}
