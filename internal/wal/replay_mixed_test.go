package wal

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"graphkeys/internal/graph"
)

// TestReplayMixedWriters is the crash-replay differential for the
// write path: concurrent allocating and non-allocating writers, which
// the graph's writer mutex serializes into the one-record store, commit
// interleaved records, and a recovery replay of the log must rebuild
// the live graph byte-identically. The allocating writers are the
// interesting half — their node IDs are assigned in the same order
// their records enter the log, which is exactly what makes the
// sequential replay agree with the concurrent original.
func TestReplayMixedWriters(t *testing.T) {
	const writers, rounds = 8, 16
	dir := t.TempDir()
	s, err := Open(dir, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New()
	hook := logHook(s)

	// Base state for the non-allocating writers: entities and literals
	// that already exist, so toggling the triple allocates nothing.
	base := &graph.Delta{}
	for w := 0; w < writers; w++ {
		id := fmt.Sprintf("base%d", w)
		base.AddEntity(id, "T").AddValueTriple(id, "p", fmt.Sprintf("lit%d", w))
	}
	if _, err := g.ApplyDeltaLogged(base, hook); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				var d *graph.Delta
				if w%2 == 0 {
					// Allocating: fresh entity + fresh literal each round.
					id := fmt.Sprintf("w%d-e%d", w, j)
					d = (&graph.Delta{}).
						AddEntity(id, "T").
						AddValueTriple(id, "score", fmt.Sprintf("w%d-v%d", w, j))
				} else {
					// Non-allocating: toggle an existing value triple.
					id, lit := fmt.Sprintf("base%d", w), fmt.Sprintf("lit%d", w)
					if j%2 == 0 {
						d = (&graph.Delta{}).RemoveValueTriple(id, "p", lit)
					} else {
						d = (&graph.Delta{}).AddValueTriple(id, "p", lit)
					}
				}
				if _, err := g.ApplyDeltaLogged(d, hook); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	var live bytes.Buffer
	if err := g.WriteText(&live); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	rg, recs, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := writers*rounds + 1; len(recs) != want {
		t.Fatalf("replayed %d records, want %d", len(recs), want)
	}
	var replayed bytes.Buffer
	if err := rg.WriteText(&replayed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live.Bytes(), replayed.Bytes()) {
		t.Fatalf("replay diverges from the live graph:\nlive:\n%s\nreplayed:\n%s", live.String(), replayed.String())
	}
}
