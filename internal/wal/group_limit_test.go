package wal

import (
	"fmt"
	"sync"
	"testing"

	"graphkeys/internal/graph"
	"graphkeys/internal/obs"
)

// TestGroupLimitCapsFlushes buffers a burst far larger than the group
// cap and then commits it all at once: every flush must take at most
// the cap, the excess must carry over in order, and the group-size
// histogram must prove it (max <= cap, sum == records written).
func TestGroupLimitCapsFlushes(t *testing.T) {
	const (
		limit = 8
		n     = 50
	)
	dir := t.TempDir()
	s, err := Open(dir, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	s.maxGroup = limit
	reg := obs.NewRegistry()
	s.RegisterObs(reg)

	// Buffer the whole burst before anyone commits, so the pending
	// queue is guaranteed to exceed the cap.
	commits := make([]func() error, 0, n)
	for i := 0; i < n; i++ {
		ops := []graph.DeltaOp{{Kind: graph.OpAddEntity, ID: fmt.Sprintf("e%d", i), TypeName: "T"}}
		_, commit, err := s.Begin(ops)
		if err != nil {
			t.Fatal(err)
		}
		commits = append(commits, commit)
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i, commit := range commits {
		wg.Add(1)
		go func(i int, commit func() error) {
			defer wg.Done()
			errs[i] = commit()
		}(i, commit)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}

	snap := reg.Snapshot()
	h, ok := snap.Histograms["wal.group_size"]
	if !ok {
		t.Fatal("wal.group_size histogram missing")
	}
	if h.Max > limit {
		t.Fatalf("a flush took %d records, cap is %d", h.Max, limit)
	}
	if h.Sum != n {
		t.Fatalf("flushed %d records total, want %d", h.Sum, n)
	}
	if want := uint64((n + limit - 1) / limit); h.Count < want {
		t.Fatalf("%d flushes for %d records at cap %d, want >= %d", h.Count, n, limit, want)
	}
	if got := snap.Counters["wal.records"]; got != n {
		t.Fatalf("wal.records = %d, want %d", got, n)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The split must not lose or reorder anything: every record
	// replays, in seq order.
	_, recs, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("replayed %d records, want %d", len(recs), n)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq <= recs[i-1].Seq {
			t.Fatalf("record %d out of order: seq %d after %d", i, recs[i].Seq, recs[i-1].Seq)
		}
	}
}
