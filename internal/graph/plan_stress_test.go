package graph_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"graphkeys/internal/graph"
	"graphkeys/internal/testutil"
)

// TestConcurrentWritersDisjointGroups is the write-path stress test:
// several goroutines stream deltas over disjoint entity groups through
// ApplyDelta; the final graph must equal a serialized application of
// the same deltas. The stream comes from the shared testutil generator
// at Overlap 0 (group-scoped footprints) with entity churn and
// coalescing ops on. Run under -race by the CI race job.
func TestConcurrentWritersDisjointGroups(t *testing.T) {
	const writers = 8
	const rounds = 40

	gen := testutil.New(testutil.Config{
		Seed:        11,
		Groups:      writers,
		PerGroup:    12,
		EntityChurn: true,
		Coalesce:    true,
	})
	build := func() *graph.Graph {
		g := graph.New()
		if _, err := g.ApplyDelta(gen.Seed()); err != nil {
			t.Fatal(err)
		}
		return g
	}
	mkDelta := func(w, round int) *graph.Delta { return gen.Delta(w, round) }

	// Concurrent application.
	g := build()
	var werr error
	var werrMu sync.Mutex
	var writersWg sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWg.Add(1)
		go func(w int) {
			defer writersWg.Done()
			for round := 0; round < rounds; round++ {
				if _, err := g.ApplyDelta(mkDelta(w, round)); err != nil {
					werrMu.Lock()
					werr = fmt.Errorf("writer %d round %d: %v", w, round, err)
					werrMu.Unlock()
					return
				}
			}
		}(w)
	}
	writersWg.Wait()
	if werr != nil {
		t.Fatal(werr)
	}

	// Serialized application of the same deltas (writer-major order —
	// the groups are disjoint, so any interleaving commutes).
	ref := build()
	for w := 0; w < writers; w++ {
		for round := 0; round < rounds; round++ {
			if _, err := ref.ApplyDelta(mkDelta(w, round)); err != nil {
				t.Fatalf("serial writer %d round %d: %v", w, round, err)
			}
		}
	}
	var got, want bytes.Buffer
	if err := g.WriteText(&got); err != nil {
		t.Fatal(err)
	}
	if err := ref.WriteText(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("concurrent application diverges from serialized:\nconcurrent:\n%s\nserial:\n%s", got.String(), want.String())
	}
}
