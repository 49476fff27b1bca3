package graphkeys

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"graphkeys/internal/graph"
	"graphkeys/internal/testutil"
)

// wrapDelta lifts a generated graph-level delta into the public Delta
// the Matcher applies; wrapDeltas lifts a whole batch. The shared
// testutil generator works at the graph level so the inc, plan and WAL
// tests can drive it too.
func wrapDelta(gd *graph.Delta) *Delta { return &Delta{d: *gd} }

func wrapDeltas(gds []*graph.Delta) []*Delta {
	out := make([]*Delta, len(gds))
	for i, gd := range gds {
		out[i] = wrapDelta(gd)
	}
	return out
}

// batchFixture builds the grouped fixture of the shared generator.
func batchFixture(t *testing.T, gen *testutil.Generator) (*Graph, *KeySet) {
	t.Helper()
	g := NewGraph()
	if _, err := g.g.ApplyDelta(gen.Seed()); err != nil {
		t.Fatal(err)
	}
	ks, err := ParseKeys(gen.Keys())
	if err != nil {
		t.Fatal(err)
	}
	return g, ks
}

// TestApplyBatchMatchesSerialApplication: ApplyBatch over a dependent
// stream, with readers hammering the matcher, must end in exactly the
// state serial per-delta application in the same order reaches. Each
// batch spans several rounds of the generator, so it holds several
// deltas of every group; at Overlap 0.5 half the deltas also mutate
// the next group, and entity churn removes and re-adds persons, so the
// order of a batch's deltas decides the result. Run under -race by the
// CI race job.
func TestApplyBatchMatchesSerialApplication(t *testing.T) {
	const groups = 8
	const perGroup = 4
	const batches = 8
	const perBatch = 6 * groups

	gen := testutil.New(testutil.Config{
		Seed:        3,
		Groups:      groups,
		PerGroup:    perGroup,
		Overlap:     0.5,
		EntityChurn: true,
		Coalesce:    true,
	})
	stream := gen.Sequence(batches * perBatch)
	g, ks := batchFixture(t, gen)
	m, err := NewMatcher(g, ks, Options{})
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				a := fmt.Sprintf("g%d-p%d", (r+i)%groups, i%perGroup)
				b := fmt.Sprintf("g%d-p%d", (r+i)%groups, (i+2)%perGroup)
				_ = m.Same(a, b)
				if i%9 == 0 {
					_ = m.Result()
				}
			}
		}(r)
	}
	for b := 0; b < batches; b++ {
		if _, _, err := m.ApplyBatch(wrapDeltas(stream[b*perBatch : (b+1)*perBatch])); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
	}
	stop.Store(true)
	wg.Wait()

	// Serial reference: same deltas, one at a time in stream order, on a
	// fresh fixture.
	sg, _ := batchFixture(t, gen)
	sm, err := NewMatcher(sg, ks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range stream {
		if _, _, err := sm.Apply(wrapDelta(d)); err != nil {
			t.Fatalf("serial delta %d: %v", i, err)
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
		t.Fatalf("batched graph diverges from serial:\nbatched:\n%s\nserial:\n%s", got.String(), want.String())
	}
	if !reflect.DeepEqual(sortedPairs(m.Result().Matches), sortedPairs(sm.Result().Matches)) {
		t.Fatalf("batched pairs diverge from serial:\nbatched: %v\nserial:  %v",
			m.Result().Matches, sm.Result().Matches)
	}
}

// TestApplyBatchPartialFailure: a batch member that fails validation
// is skipped and reported while the rest of the batch applies.
func TestApplyBatchPartialFailure(t *testing.T) {
	gen := testutil.New(testutil.Config{Seed: 3, Groups: 2, PerGroup: 4})
	g, ks := batchFixture(t, gen)
	m, err := NewMatcher(g, ks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	good := NewDelta().AddValueTriple("g0-p0", "email", "new-mail")
	bad := NewDelta().AddEntityTriple("g0-p0", "knows", "no-such-entity")
	added, _, err := m.ApplyBatch([]*Delta{good, bad})
	if err == nil {
		t.Fatal("bad batch member did not surface an error")
	}
	_ = added
	// The good delta applied: p0 now shares new-mail with nobody, but
	// the triple must be present.
	found := false
	m.Graph().EachTriple(func(s EntityID, p, o string, isVal bool) {
		if s == "g0-p0" && p == "email" && o == "new-mail" && isVal {
			found = true
		}
	})
	if !found {
		t.Fatal("good batch member did not apply")
	}
	// And the state is still coherent with a full re-chase.
	full, err := Match(m.Graph(), ks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Result().Matches, full.Matches) {
		t.Fatal("matcher state diverges from full re-chase after partial batch")
	}
}

// TestWriterCoalesces: a burst of small deltas through the async
// Writer lands in fewer batches than deltas and ends in the state
// serial application in stream order reaches. The stream is dependent
// (Overlap 0.5 with entity churn: consecutive deltas mutate the same
// persons), so it holds only because batches apply in stream order and
// each batch applies its deltas in order (the Writer contract).
func TestWriterCoalesces(t *testing.T) {
	const groups = 6
	const perGroup = 8
	const deltas = groups * perGroup

	gen := testutil.New(testutil.Config{
		Seed:        9,
		Groups:      groups,
		PerGroup:    perGroup,
		Overlap:     0.5,
		EntityChurn: true,
	})
	stream := gen.Sequence(deltas)
	writerDelta := func(i int) *Delta { return wrapDelta(stream[i]) }

	g, ks := batchFixture(t, gen)
	m, err := NewMatcher(g, ks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := m.NewWriter()
	for i := 0; i < deltas; i++ {
		if err := w.Apply(writerDelta(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Deltas != deltas {
		t.Fatalf("writer processed %d deltas, want %d", st.Deltas, deltas)
	}
	if st.Failed != 0 {
		t.Fatalf("writer reports %d failed deltas, want 0", st.Failed)
	}
	if st.Batches == 0 || st.Batches > deltas {
		t.Fatalf("writer used %d batches for %d deltas", st.Batches, deltas)
	}
	// nil deltas are ignored; real Applies after Close fail.
	if err := w.Apply(nil); err != nil {
		t.Fatalf("nil delta errored: %v", err)
	}
	if err := w.Apply(writerDelta(0)); err == nil {
		t.Fatal("Apply after Close succeeded")
	}

	sg, _ := batchFixture(t, gen)
	sm, err := NewMatcher(sg, ks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < deltas; i++ {
		if _, _, err := sm.Apply(writerDelta(i)); err != nil {
			t.Fatal(err)
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
		t.Fatal("writer-applied graph diverges from serial application")
	}
	if !reflect.DeepEqual(sortedPairs(m.Result().Matches), sortedPairs(sm.Result().Matches)) {
		t.Fatal("writer-applied pairs diverge from serial application")
	}
}
