package graphkeys

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// serveSupportFixture builds a small person/email graph plus the
// single-value key identifying persons sharing an email.
func serveSupportFixture(t *testing.T, n int) (*Graph, *KeySet) {
	t.Helper()
	g := NewGraph()
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("p%d", i)
		if err := g.AddEntity(id, "person"); err != nil {
			t.Fatal(err)
		}
		if err := g.AddValueTriple(id, "email", fmt.Sprintf("mail%d", i/2)); err != nil {
			t.Fatal(err)
		}
	}
	ks, err := ParseKeys("key P for person {\n x -email-> e*\n}")
	if err != nil {
		t.Fatal(err)
	}
	return g, ks
}

// substrateCounts sums a Metrics snapshot's engine.* and match.*
// counters — the instruments that used to live behind package globals.
func substrateCounts(m *Matcher) int64 {
	var sum int64
	for name, v := range m.Metrics().Counters {
		if len(name) > 7 && (name[:7] == "engine." || name[:6] == "match.") {
			sum += v
		}
	}
	return sum
}

// TestObsScopedPerMatcher is the regression test for the obs
// cross-wiring bug: engine.* and match.* instruments were package
// globals, so whichever Matcher registered last received every
// coexisting Matcher's substrate counts. With per-matcher handles, two
// live Matchers must each account only their own work: driving one
// must not move the other's counters at all.
func TestObsScopedPerMatcher(t *testing.T) {
	g1, ks := serveSupportFixture(t, 24)
	g2, _ := serveSupportFixture(t, 24)
	m1, err := NewMatcher(g1, ks, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := NewMatcher(g2, ks, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	drive := func(m *Matcher, tag string) {
		for i := 0; i < 8; i++ {
			id := EntityID(fmt.Sprintf("%s%d", tag, i))
			d := NewDelta().AddEntity(id, "person")
			d.AddValueTriple(id, "email", fmt.Sprintf("mail%d", i%3))
			if _, _, err := m.Apply(d); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Construction runs the initial chase, so both start nonzero; what
	// matters is who moves when only m1 works.
	base1, base2 := substrateCounts(m1), substrateCounts(m2)
	drive(m1, "x")
	if got := substrateCounts(m1); got <= base1 {
		t.Fatalf("driving m1 did not move its own substrate counters (%d -> %d)", base1, got)
	}
	if got := substrateCounts(m2); got != base2 {
		t.Fatalf("driving m1 moved m2's substrate counters (%d -> %d): obs handles are cross-wired", base2, got)
	}

	// And symmetrically.
	base1, base2 = substrateCounts(m1), substrateCounts(m2)
	drive(m2, "y")
	if got := substrateCounts(m2); got <= base2 {
		t.Fatalf("driving m2 did not move its own substrate counters (%d -> %d)", base2, got)
	}
	if got := substrateCounts(m1); got != base1 {
		t.Fatalf("driving m2 moved m1's substrate counters (%d -> %d): obs handles are cross-wired", base1, got)
	}
}

// TestSnapshotStableAcrossReopen: opening a durable matcher
// cross-checks the stored pairs against the re-derived fixpoint; that
// check must treat the snapshot as read-only — the snapshot file is
// byte-identical before and after a reopen, and a re-snapshot of
// unchanged state reproduces it.
func TestSnapshotStableAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	_, ks := serveSupportFixture(t, 0)
	m, err := OpenMatcher(dir, ks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDelta()
	for i := 0; i < 6; i++ {
		id := EntityID(fmt.Sprintf("p%d", i))
		d.AddEntity(id, "person")
		d.AddValueTriple(id, "email", fmt.Sprintf("mail%d", i/2))
	}
	if _, _, err := m.Apply(d); err != nil {
		t.Fatal(err)
	}
	if len(m.Result().Matches) == 0 {
		t.Fatal("fixture identified nothing")
	}
	if err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, "snapshot")
	before, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}

	m2, err := OpenMatcher(dir, ks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatalf("reopen rewrote the snapshot:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	// Re-snapshotting unchanged state is deterministic.
	if err := m2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(again) {
		t.Fatalf("re-snapshot of unchanged state differs:\nbefore:\n%s\nafter:\n%s", before, again)
	}
}

// TestErrInvalidDelta: a delta that fails validation is told apart from
// a log failure by errors.Is(err, ErrInvalidDelta) — from Apply with its
// message unchanged, and from ApplyBatch through the joined errors, but
// not from an Apply whose log is closed.
func TestErrInvalidDelta(t *testing.T) {
	_, ks := serveSupportFixture(t, 0)
	m, err := OpenMatcher(t.TempDir(), ks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bad := NewDelta().AddEntityTriple("no-such-entity", "knows", "p0")
	_, _, err = m.Apply(bad)
	if !errors.Is(err, ErrInvalidDelta) || err.Error() != `graph: delta op 0: unknown subject entity "no-such-entity"` {
		t.Fatalf("Apply of an invalid delta: %v, want ErrInvalidDelta with the planner's message", err)
	}
	if _, _, err := m.ApplyBatch([]*Delta{NewDelta().AddEntity("p0", "person"), bad}); !errors.Is(err, ErrInvalidDelta) {
		t.Fatalf("ApplyBatch with an invalid delta: %v, want ErrInvalidDelta", err)
	}
	if _, ok := m.Canonical("p0"); !ok || m.Seq() != 1 {
		t.Fatalf("the batch's valid delta did not apply alone: seq %d", m.Seq())
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Apply(NewDelta().AddEntity("p1", "person")); err == nil || errors.Is(err, ErrInvalidDelta) {
		t.Fatalf("Apply after Close: %v, want a log error that is not ErrInvalidDelta", err)
	}
}

// TestApplyBatchStopsAtLogFailure: a log failure fails the whole
// batch. ApplyBatch of a valid, an invalid and a valid delta on a
// closed durable matcher answers three outcomes, each carrying the log
// error — the invalid delta's too, since nothing of the batch applied —
// and none ErrInvalidDelta; a Writer over it counts all three in
// Stats.Failed and writer.failed. Mutant killed: the invalid delta
// reporting its own validation error.
func TestApplyBatchStopsAtLogFailure(t *testing.T) {
	_, ks := serveSupportFixture(t, 0)
	m, err := OpenMatcher(t.TempDir(), ks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	three := func() []*Delta {
		return []*Delta{NewDelta().AddEntity("a", "person"), NewDelta().AddEntityTriple("no-such-entity", "knows", "a"), NewDelta().AddEntity("c", "person")}
	}
	_, outcomes, err := m.ApplyBatch(three())
	if err == nil || errors.Is(err, ErrInvalidDelta) || len(outcomes) != 3 {
		t.Fatalf("ApplyBatch after Close: %d outcomes %+v, error %v; want three outcomes with the log error", len(outcomes), outcomes, err)
	}
	for i, o := range outcomes {
		if o.Err == nil || errors.Is(o.Err, ErrInvalidDelta) || o.Err.Error() != err.Error() {
			t.Fatalf("outcome %d: %v, want the batch's log error %v", i, o.Err, err)
		}
	}
	w := m.NewWriter()
	for _, d := range three() {
		if err := w.Apply(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err == nil {
		t.Fatal("Writer.Close after the matcher's Close returned nil")
	}
	if st := w.Stats(); st.Batches != 1 || st.Deltas != 3 || st.Failed != 3 {
		t.Fatalf("Writer stats %+v, want 1 batch of 3 deltas, 3 failed", st)
	}
	if v := m.Metrics().Counters["writer.failed"]; v != 3 {
		t.Fatalf("writer.failed counter = %d, want 3", v)
	}
}

// TestWriterFailureAccounting pins the Writer's drain-after-error
// contract: a delta that fails validation mid-stream surfaces as the
// sticky error on Flush/Apply/Close, is counted in Stats.Failed, and
// does not stall the stream — every delta buffered before the error is
// still processed, and good ones still mutate the matcher.
func TestWriterFailureAccounting(t *testing.T) {
	g, ks := serveSupportFixture(t, 4)
	m, err := NewMatcher(g, ks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := m.NewWriter()

	const good = 6
	for i := 0; i < good; i++ {
		id := EntityID(fmt.Sprintf("n%d", i))
		d := NewDelta().AddEntity(id, "person")
		d.AddValueTriple(id, "email", fmt.Sprintf("newmail%d", i/2))
		if err := w.Apply(d); err != nil {
			t.Fatalf("good delta %d: %v", i, err)
		}
	}
	// The poison pill: an edge from an entity that doesn't exist fails
	// delta validation.
	bad := NewDelta().AddEntityTriple("no-such-entity", "knows", "p0")
	if err := w.Apply(bad); err != nil {
		t.Fatal(err) // buffering succeeds; the failure surfaces when the buffer applies
	}
	// A good delta after the bad one: the buffer (8 of 1 024) has not
	// applied yet, so it is buffered too and applies in the same batch
	// (the drain contract).
	tail := NewDelta().AddEntity("tail", "person")
	tail.AddValueTriple("tail", "email", "newmail0")
	if err := w.Apply(tail); err != nil {
		t.Fatalf("tail Apply before the buffer applied: %v", err)
	}

	ferr := w.Flush()
	if ferr == nil {
		t.Fatal("Flush after a failing delta returned nil")
	}
	// The error is sticky: new work is rejected with it, and Close
	// reports it too.
	if err := w.Apply(NewDelta().AddEntity("late", "person")); err == nil {
		t.Fatal("Apply after sticky error succeeded")
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close after a failing delta returned nil")
	}

	st := w.Stats()
	if st.Failed != 1 {
		t.Fatalf("Stats.Failed = %d, want 1", st.Failed)
	}
	// Every buffered delta was processed, in one batch: the good ones
	// and tail applied, the bad one failed.
	if st.Batches != 1 || st.Deltas != good+2 {
		t.Fatalf("Stats = %+v, want 1 batch of %d deltas", st, good+2)
	}

	// The good deltas really mutated the matcher.
	for i := 0; i < good; i++ {
		id := EntityID(fmt.Sprintf("n%d", i))
		if _, ok := m.Canonical(id); !ok {
			t.Fatalf("good delta %d did not apply: %s unknown", i, id)
		}
	}
	// And the failure counter surfaced on the registry.
	if v := m.Metrics().Counters["writer.failed"]; v != 1 {
		t.Fatalf("writer.failed counter = %d, want 1", v)
	}
	// The matcher is still coherent: a fresh full match agrees.
	full, err := Match(m.Graph(), ks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sortedPairs(m.Result().Matches), sortedPairs(full.Matches)) {
		t.Fatal("matcher state diverges from full re-chase after failed delta")
	}
}
