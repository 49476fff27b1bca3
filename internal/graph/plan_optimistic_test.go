package graph

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"graphkeys/internal/obs"
)

// These tests pin the optimistic write path (see plan.go): concurrent
// allocating writers are equivalent to a serial application of their
// log records, bounded replans guarantee progress on a hot shard, and
// a pending name reservation blocks a duplicate allocation until the
// owning delta lowers.

// logOrder is a DeltaLog capturing normalized records in plan order
// (the hook runs under the plan mutex, so appends are already
// serialized) and returning a trivial durability commit, which forces
// the group-commit path: reserve, release the mutex, commit, lower.
type logOrder struct {
	mu      sync.Mutex
	records [][]DeltaOp
}

func (lo *logOrder) log(ops []DeltaOp) (DeltaCommit, error) {
	lo.mu.Lock()
	lo.records = append(lo.records, append([]DeltaOp(nil), ops...))
	lo.mu.Unlock()
	return func() error { return nil }, nil
}

func graphText(t *testing.T, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestConcurrentAllocatingWritersEquivalence runs N concurrent writers
// that each allocate entities and value literals under DISTINCT names
// — the workload the name-level pending table exists for — and checks
// the result is byte-identical to applying the logged records
// serially, in log order, to a fresh graph, and name-identical to one
// writer applying the deltas.
func TestConcurrentAllocatingWritersEquivalence(t *testing.T) {
	const writers, deltas = 8, 24
	delta := func(w, j int) *Delta {
		id := fmt.Sprintf("w%d-e%d", w, j)
		d := (&Delta{}).
			AddEntity(id, "T").
			AddValueTriple(id, "score", fmt.Sprintf("w%d-v%d", w, j))
		if j > 0 {
			d.AddTriple(id, "follows", fmt.Sprintf("w%d-e%d", w, j-1))
		}
		return d
	}
	g := New()
	lo := &logOrder{}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < deltas; j++ {
				if _, err := g.ApplyDeltaLogged(delta(w, j), lo.log); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	if got, want := len(lo.records), writers*deltas; got != want {
		t.Fatalf("logged %d records, want %d", got, want)
	}
	// Serial replay of the log: reservation order is plan order is log
	// order, so even the dense node IDs must agree, not just the
	// name-level text.
	g2 := New()
	for _, ops := range lo.records {
		if _, err := g2.ApplyDelta(NewDeltaOps(ops)); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(graphText(t, g), graphText(t, g2)) {
		t.Fatal("concurrent allocating writers diverged from serial log replay")
	}
	if g.NumNodes() != g2.NumNodes() {
		t.Fatalf("node space diverged: concurrent %d, serial %d", g.NumNodes(), g2.NumNodes())
	}
	for w := 0; w < writers; w++ {
		for j := 0; j < deltas; j++ {
			id := fmt.Sprintf("w%d-e%d", w, j)
			n1, ok1 := g.Entity(id)
			n2, ok2 := g2.Entity(id)
			if !ok1 || !ok2 || n1 != n2 {
				t.Fatalf("entity %q: concurrent (%d,%v) vs serial (%d,%v)", id, n1, ok1, n2, ok2)
			}
		}
	}
	// One writer applying the deltas themselves (not the logged
	// records) reaches the same graph by name; its dense IDs follow its
	// own reservation order, so only the text is compared.
	g1 := New()
	for w := 0; w < writers; w++ {
		for j := 0; j < deltas; j++ {
			if _, err := g1.ApplyDelta(delta(w, j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !bytes.Equal(graphText(t, g), graphText(t, g1)) {
		t.Fatal("concurrent allocating writers diverged from one writer applying the same deltas")
	}
}

// TestAdmissionRetryStarvation hammers one entity's shard from every
// writer at once — the worst case for optimistic planning, where
// footprints go stale constantly — and checks that bounded replans
// plus the exclusive plan guarantee progress, with the retry
// accounting visible in the observer.
func TestAdmissionRetryStarvation(t *testing.T) {
	const writers, rounds = 8, 40
	g := New()
	reg := obs.NewRegistry()
	g.RegisterObs(reg)
	g.MustAddEntity("hub", "T")

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lit := fmt.Sprintf("hot%d", w)
			for j := 0; j < rounds; j++ {
				add := (&Delta{}).AddValueTriple("hub", "p", lit)
				if _, err := g.ApplyDelta(add); err != nil {
					t.Error(err)
					return
				}
				rem := (&Delta{}).RemoveValueTriple("hub", "p", lit)
				if _, err := g.ApplyDelta(rem); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// Every writer completed (the progress guarantee) and the net
	// state is exact: all adds matched by removes.
	for w := 0; w < writers; w++ {
		if _, ok := g.Value(fmt.Sprintf("hot%d", w)); !ok {
			t.Fatalf("writer %d's literal missing", w)
		}
	}
	hub, _ := g.Entity("hub")
	if d := g.Degree(hub); d != 0 {
		t.Fatalf("hub degree = %d after matched add/remove rounds, want 0", d)
	}
	snap := reg.Snapshot()
	applied := snap.Counters["graph.deltas"] + snap.Counters["graph.deltas_noop"]
	if want := int64(writers * rounds * 2); applied != want {
		t.Fatalf("deltas accounted %d, want %d", applied, want)
	}
	// Replans are bounded per delta: maxReplans + 1 optimistic passes
	// can be discarded before the exclusive plan.
	if max := int64(writers*rounds*2) * int64(maxReplans+1); snap.Counters["graph.plan_retries"] > max {
		t.Fatalf("plan_retries = %d exceeds the per-delta bound (max %d)", snap.Counters["graph.plan_retries"], max)
	}
	// Every accepted delta was admitted exactly once: by revalidation
	// or, after maxReplans misses, by an exclusive plan.
	if got := snap.Counters["graph.plans_optimistic"] + snap.Counters["graph.plan_fallbacks"]; got != applied {
		t.Fatalf("plans_optimistic + plan_fallbacks = %d, want %d (deltas + deltas_noop)", got, applied)
	}
}

// TestPendingNameBlocksDuplicateAllocation holds a group commit open
// (reservation made, durability wait in progress) and checks that a
// legacy allocator of the same names blocks until the commit lowers —
// then resolves to the RESERVED node rather than allocating a second
// one.
func TestPendingNameBlocksDuplicateAllocation(t *testing.T) {
	g := New()
	gate := make(chan struct{})
	reserved := make(chan struct{})
	resCh := make(chan *DeltaResult, 1)
	go func() {
		d := (&Delta{}).AddEntity("x", "T").AddValueTriple("x", "p", "litx")
		res, err := g.ApplyDeltaLogged(d, func([]DeltaOp) (DeltaCommit, error) {
			return func() error {
				close(reserved) // reservation happened before commit was called
				<-gate
				return nil
			}, nil
		})
		if err != nil {
			t.Error(err)
		}
		resCh <- res
	}()
	<-reserved

	entDone := make(chan NodeID, 1)
	valDone := make(chan NodeID, 1)
	go func() { entDone <- g.MustAddEntity("x", "T") }()
	go func() { valDone <- g.AddValue("litx") }()

	select {
	case <-entDone:
		t.Fatal("AddEntity of a pending name completed before the owning commit lowered")
	case <-valDone:
		t.Fatal("AddValue of a pending literal completed before the owning commit lowered")
	case <-time.After(50 * time.Millisecond):
	}

	close(gate)
	res := <-resCh
	if len(res.AddedEntities) != 1 {
		t.Fatalf("delta added %d entities, want 1", len(res.AddedEntities))
	}
	if n := <-entDone; n != res.AddedEntities[0] {
		t.Fatalf("AddEntity resolved to %d, want the reserved node %d", n, res.AddedEntities[0])
	}
	v, ok := g.Value("litx")
	if !ok {
		t.Fatal("value literal not published")
	}
	if n := <-valDone; n != v {
		t.Fatalf("AddValue resolved to %d, want the reserved value node %d", n, v)
	}
}
