package graphkeys

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"graphkeys/internal/graph"
	"graphkeys/internal/testutil"
	"graphkeys/internal/wal"
)

// walGen is the shared-generator configuration of the WAL tests: a
// value-anchored key and a recursive key (Bands), entity churn, and
// coalescing ops, so the replayed fixpoint exercises every repair
// path and the log sees partially-coalescing deltas.
func walGen(seed int64) *testutil.Generator {
	return testutil.New(testutil.Config{
		Seed:        seed,
		Groups:      3,
		PerGroup:    8,
		Bands:       true,
		EntityChurn: true,
		Coalesce:    true,
	})
}

func walFixtureKeys(t *testing.T, gen *testutil.Generator) *KeySet {
	t.Helper()
	ks, err := ParseKeys(gen.Keys())
	if err != nil {
		t.Fatal(err)
	}
	return ks
}

// sortedPairs normalizes matches into sorted {min, max} label pairs,
// the ID-order-independent form of chase(G, Σ).
func sortedPairs(ms []Pair) []Pair {
	out := make([]Pair, len(ms))
	for i, m := range ms {
		if m.A > m.B {
			m.A, m.B = m.B, m.A
		}
		out[i] = m
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// runCrashReplay streams random generated deltas through a durable
// matcher with fsync'd WAL (optionally snapshotting midway), drops the
// in-memory state, reopens the directory, and asserts the
// reconstruction. Without a snapshot the replayed matcher is
// byte-identical down to the dense node IDs, so the raw Matches lists
// must match exactly; with a snapshot the graph text is still
// byte-identical but IDs renumber past the tombstones and stranded
// values the snapshot drops, so pairs compare as sorted label pairs.
func runCrashReplay(t *testing.T, snapshotMidway bool) {
	const rounds = 30
	dir := t.TempDir()
	gen := walGen(7)
	ks := walFixtureKeys(t, gen)

	m, err := OpenMatcher(dir, ks, Options{Durability: DurabilityFsync})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Apply(wrapDelta(gen.Seed())); err != nil {
		t.Fatal(err)
	}
	for round, gd := range gen.Sequence(rounds) {
		if _, _, err := m.Apply(wrapDelta(gd)); err != nil {
			t.Fatal(err)
		}
		if snapshotMidway && round == rounds/2 {
			if err := m.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	wantMatches := m.Result().Matches
	var wantGraph bytes.Buffer
	if err := m.Graph().Write(&wantGraph); err != nil {
		t.Fatal(err)
	}
	// Drop the in-memory state without any graceful shutdown: the
	// fsync'd WAL is all that survives.
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m = nil

	re, err := OpenMatcher(dir, ks, Options{Durability: DurabilityFsync})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	var gotGraph bytes.Buffer
	if err := re.Graph().Write(&gotGraph); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotGraph.Bytes(), wantGraph.Bytes()) {
		t.Fatalf("replayed graph diverges:\ngot:\n%s\nwant:\n%s", gotGraph.String(), wantGraph.String())
	}
	gotMatches := re.Result().Matches
	if snapshotMidway {
		if !reflect.DeepEqual(sortedPairs(gotMatches), sortedPairs(wantMatches)) {
			t.Fatalf("replayed chase pairs diverge:\ngot:  %v\nwant: %v", gotMatches, wantMatches)
		}
	} else if !reflect.DeepEqual(gotMatches, wantMatches) {
		t.Fatalf("replayed chase pairs not byte-identical:\ngot:  %v\nwant: %v", gotMatches, wantMatches)
	}

	// And the replayed fixpoint equals a from-scratch chase of the
	// reconstructed graph (the usual differential closure).
	full, err := Match(re.Graph(), ks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(re.Result().Matches, full.Matches) {
		t.Fatal("replayed incremental state diverges from full re-chase")
	}
}

// TestCrashReplayDifferential is the crash-replay differential test
// over the pure log: replay reconstructs byte-identical chase pairs.
func TestCrashReplayDifferential(t *testing.T) { runCrashReplay(t, false) }

// TestCrashReplayDifferentialSnapshot covers the compaction path: a
// snapshot midway, then more logged deltas, then crash and reopen.
func TestCrashReplayDifferentialSnapshot(t *testing.T) { runCrashReplay(t, true) }

// TestNoopDeltaWritesNoWALRecord pins the coalescing/WAL contract: a
// delta that normalizes to a no-op leaves the log byte-identical.
func TestNoopDeltaWritesNoWALRecord(t *testing.T) {
	dir := t.TempDir()
	gen := walGen(7)
	ks := walFixtureKeys(t, gen)
	m, err := OpenMatcher(dir, ks, Options{Durability: DurabilityFsync})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, _, err := m.Apply(wrapDelta(gen.Seed())); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, "wal.log")
	before, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}

	noop := NewDelta().
		AddValueTriple("g0-p0", "scratch", "v").
		AddValueTriple("g0-p0", "scratch", "v"). // dup
		RemoveValueTriple("g0-p0", "scratch", "v")
	if _, _, err := m.Apply(noop); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("no-op delta grew the WAL by %d bytes", len(after)-len(before))
	}
}

// TestSnapshotKeepsTriplelessEntities is the matcher-level regression
// for snapshot compaction: an entity with no incident triples must
// survive Snapshot + reopen and accept triples afterwards.
func TestSnapshotKeepsTriplelessEntities(t *testing.T) {
	dir := t.TempDir()
	gen := walGen(7)
	ks := walFixtureKeys(t, gen)
	m, err := OpenMatcher(dir, ks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Apply(wrapDelta(gen.Seed())); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Apply(NewDelta().AddEntity("lonely", "person")); err != nil {
		t.Fatal(err)
	}
	if err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}
	m.Close()

	re, err := OpenMatcher(dir, ks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, ok := re.Graph().HasEntity("lonely"); !ok {
		t.Fatal("tripleless entity lost by snapshot compaction")
	}
	// The seed gives g0-p0 the email g0-mail0; joining that collision
	// class identifies lonely with it.
	if _, _, err := re.Apply(NewDelta().
		AddValueTriple("lonely", "email", "g0-mail0").
		AddValueTriple("g0-p0", "email", "g0-mail0")); err != nil {
		t.Fatalf("triple on revived entity: %v", err)
	}
	if !re.Same("lonely", "g0-p0") {
		t.Fatal("revived entity did not join g0-p0's class")
	}
}

// TestSnapshotKeepsNodeOrder: a graph with no tombstones snapshots and
// reopens with every NodeID naming the node it named before and every
// EntitiesWith answer in the same order, including nodes a delta
// allocated after the seed. Writing the nodes in any other order (by
// token, as the text snapshot did) fails it.
func TestSnapshotKeepsNodeOrder(t *testing.T) {
	g, ks := chainsWorkload(t)
	var attrs [][2]string
	g.g.EachValuePosting(func(p graph.PredID, v graph.NodeID, _ []graph.NodeID) {
		attrs = append(attrs, [2]string{g.g.PredName(p), g.g.Label(v)})
	})
	dir := t.TempDir()
	m, err := SeedMatcher(dir, g, ks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Apply(NewDelta().AddEntity("order-new", g.g.TypeName(0)).
		AddValueTriple("order-new", attrs[0][0], attrs[0][1]).AddValueTriple("order-new", attrs[0][0], "order-new-value")); err != nil {
		t.Fatal(err)
	}
	attrs = append(attrs, [2]string{attrs[0][0], "order-new-value"})
	if err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenMatcher(dir, ks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	a, b := m.Graph().g, re.Graph().g
	if a.NumNodes() != b.NumNodes() {
		t.Fatalf("reopened with %d nodes, want %d", b.NumNodes(), a.NumNodes())
	}
	for i := range a.NumNodes() {
		if n := graph.NodeID(i); a.Label(n) != b.Label(n) || a.IsValue(n) != b.IsValue(n) {
			t.Fatalf("node %d reopened as %q (value %v), want %q (value %v)", n, b.Label(n), b.IsValue(n), a.Label(n), a.IsValue(n))
		}
	}
	for _, pv := range attrs {
		if got, want := re.EntitiesWith(pv[0], pv[1]), m.EntitiesWith(pv[0], pv[1]); !slices.Equal(got, want) {
			t.Fatalf("EntitiesWith(%q, %q) reopened as %q, want %q", pv[0], pv[1], got, want)
		}
	}
}

// TestSnapshotRefusesUnreadableNames is named for the contract it
// replaced. The text snapshot refused the names it would rename, drop
// or fail to read back; the snapshot's tables hold every name, so each
// case — those names and their harmless neighbours alike — snapshots,
// truncates the log and reopens with every name intact.
func TestSnapshotRefusesUnreadableNames(t *testing.T) {
	ks := walFixtureKeys(t, walGen(7))
	for _, c := range []struct {
		name string
		d    *Delta
	}{
		{"colon in a type", NewDelta().AddEntity("e1", "a:b").AddValueTriple("e1", "p", "v")},
		{"leading space on an ID", NewDelta().AddEntity(" e1", "T").AddValueTriple(" e1", "p", "v")},
		{"trailing space on a type", NewDelta().AddEntity("e1", "T ").AddValueTriple("e1", "p", "v")},
		{"space around a predicate", NewDelta().AddEntity("e1", "T").AddValueTriple("e1", " p", "v")},
		{"subject ID starting with #", NewDelta().AddEntity("#e1", "T").AddValueTriple("#e1", "p", "v")},
		{"object ID starting with a quote", NewDelta().AddEntity("a", "T").AddEntity(`"q`, "T").AddEntityTriple("a", "rel", `"q`)},
		{"colons and a trailing space in an ID", NewDelta().AddEntity("ns:e1 ", "T").AddValueTriple("ns:e1 ", "p", "v")},
		{"subject ID starting with a quote", NewDelta().AddEntity(`"q`, "T").AddValueTriple(`"q`, "p", "v")},
		{"object ID starting with #", NewDelta().AddEntity("a", "T").AddEntity("#e1", "T").AddEntityTriple("a", "rel", "#e1")},
		{"isolated entity starting with #", NewDelta().AddEntity("#e1", "T")},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			m, err := OpenMatcher(dir, ks, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := m.Apply(c.d); err != nil {
				t.Fatal(err)
			}
			want := graphNames(m.Graph())
			if err := m.Snapshot(); err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			if _, serr := os.Stat(filepath.Join(dir, "snapshot.tmp")); !os.IsNotExist(serr) {
				t.Fatalf("Snapshot left a temp file: %v", serr)
			}
			if log, err := os.ReadFile(filepath.Join(dir, "wal.log")); err != nil || len(log) != 8 {
				t.Fatalf("Snapshot left a log of %d bytes (%v), want the 8-byte header", len(log), err)
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := OpenMatcher(dir, ks, Options{})
			if err != nil {
				t.Fatalf("reopening after Snapshot: %v", err)
			}
			defer re.Close()
			if got := graphNames(re.Graph()); !reflect.DeepEqual(got, want) {
				t.Fatalf("reopened graph:\n%q\nwant\n%q", got, want)
			}
		})
	}
}

// graphNames lists a graph's entities and triples by name, sorted.
func graphNames(g *Graph) []string {
	var out []string
	g.EachEntity(func(id EntityID, typeName string) {
		out = append(out, fmt.Sprintf("entity %q %q", id, typeName))
	})
	g.EachTriple(func(s EntityID, p, o string, isValue bool) {
		out = append(out, fmt.Sprintf("triple %q %q %q value=%v", s, p, o, isValue))
	})
	sort.Strings(out)
	return out
}

// TestOpenMatcherDetectsSnapshotMismatch: a snapshot taken under one
// key set must refuse to open under a key set deriving different
// pairs.
func TestOpenMatcherDetectsSnapshotMismatch(t *testing.T) {
	dir := t.TempDir()
	gen := walGen(7)
	ks := walFixtureKeys(t, gen)
	m, err := OpenMatcher(dir, ks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Apply(wrapDelta(gen.Seed())); err != nil {
		t.Fatal(err)
	}
	if err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}
	m.Close()

	other, err := ParseKeys(`key Z for person {
		x -nonexistent-> v*
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMatcher(dir, other, Options{}); err == nil {
		t.Fatal("snapshot under a different key set opened without error")
	}
}

// copyWALDir copies the snapshot and log of a WAL directory, which a
// live matcher may hold, into a fresh directory.
func copyWALDir(t *testing.T, dir string) string {
	t.Helper()
	cp := t.TempDir()
	for _, name := range []string{"snapshot", "wal.log"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cp, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return cp
}

// sameMatcherState fails unless a and b hold the same graph text, the
// same node at every ID, the same classes and the same Seq.
func sameMatcherState(t *testing.T, a, b *Matcher) {
	t.Helper()
	var ta, tb bytes.Buffer
	if err := a.Graph().Write(&ta); err != nil {
		t.Fatal(err)
	}
	if err := b.Graph().Write(&tb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ta.Bytes(), tb.Bytes()) {
		t.Fatalf("graph text differs:\n%s\nvs\n%s", ta.String(), tb.String())
	}
	ga, gb := a.Graph().g, b.Graph().g
	if ga.NumNodes() != gb.NumNodes() {
		t.Fatalf("%d nodes, want %d", ga.NumNodes(), gb.NumNodes())
	}
	for n := range ga.NumNodes() {
		id := graph.NodeID(n)
		if ga.Label(id) != gb.Label(id) || ga.IsValue(id) != gb.IsValue(id) || ga.IsEntity(id) != gb.IsEntity(id) {
			t.Fatalf("node %d is %q, want %q", n, ga.Label(id), gb.Label(id))
		}
	}
	if ca, cb := a.Result().Classes, b.Result().Classes; !reflect.DeepEqual(ca, cb) {
		t.Fatalf("classes %v, want %v", ca, cb)
	}
	if a.Seq() != b.Seq() {
		t.Fatalf("seq %d, want %d", a.Seq(), b.Seq())
	}
}

// TestFailedCommitReopensDirectory: with fsync failing, ApplyBatch of a
// batch that merges, creates entities and allocates literals returns
// the error on every outcome and publishes no event; the live matcher
// then equals OpenMatcher on a copy of its directory — graph text, node
// IDs, classes and Seq — through the same *Graph, and the next batch
// applies, fires the hook and equals the copy after that batch. Mutant
// killed: skipping the re-open, which leaves the unacknowledged deltas
// visible.
func TestFailedCommitReopensDirectory(t *testing.T) {
	dir := t.TempDir()
	gen := walGen(11)
	ks := walFixtureKeys(t, gen)
	opts := Options{Durability: DurabilityFsync}
	m, err := OpenMatcher(dir, ks, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	events := 0
	m.SetOnApply(func(ApplyEvent) { events++ })
	if _, _, err := m.Apply(wrapDelta(gen.Seed())); err != nil {
		t.Fatal(err)
	}
	for r := range 3 {
		if _, _, err := m.ApplyBatch(wrapDeltas(gen.Round(r))); err != nil {
			t.Fatal(err)
		}
	}
	g, seq, seen := m.Graph(), m.Seq(), events
	batch := func(r int) []*Delta {
		ds := wrapDeltas(gen.Round(r))
		for i := range 2 {
			id := EntityID(fmt.Sprintf("fresh%d-%d", r, i))
			ds = append(ds, NewDelta().AddEntity(id, "person").AddValueTriple(id, "email", fmt.Sprintf("shared%d@x", r)))
		}
		return ds
	}

	restore := wal.FailSyncs(fmt.Errorf("injected fsync failure"), false)
	ds := batch(3)
	_, outcomes, err := m.ApplyBatch(ds)
	restore()
	if err == nil || errors.Is(err, ErrInvalidDelta) || len(outcomes) != len(ds) {
		t.Fatalf("ApplyBatch with fsync failing: error %v, %d outcomes for %d deltas", err, len(outcomes), len(ds))
	}
	for i, o := range outcomes {
		if o.Err == nil || o.Err.Error() != err.Error() || o.Seq != seq {
			t.Fatalf("outcome %d: %+v, want the fsync error at seq %d", i, o, seq)
		}
	}
	if events != seen || m.Graph() != g {
		t.Fatalf("after the failed commit: %d events (was %d), same *Graph %v", events, seen, m.Graph() == g)
	}
	if _, ok := m.Canonical("fresh3-0"); ok {
		t.Fatal("an entity of the failed batch is visible")
	}
	cp := copyWALDir(t, dir)
	re, err := OpenMatcher(cp, ks, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	sameMatcherState(t, m, re)

	next := batch(4)
	if _, outcomes, err := m.ApplyBatch(next); err != nil {
		t.Fatalf("the batch after the failed one: %v (%+v)", err, outcomes)
	}
	if events == seen || m.Seq() <= seq {
		t.Fatalf("the batch after the failed one: %d events, seq %d (was %d)", events-seen, m.Seq(), seq)
	}
	if _, _, err := re.ApplyBatch(batch(4)); err != nil {
		t.Fatal(err)
	}
	sameMatcherState(t, m, re)
}

// TestFailedRewindRefusesWrites: when the rewind after a failed fsync
// fails too, the failed group is still whole in the log, so the matcher
// does not re-open onto it. Every outcome carries the acknowledged seq,
// Seq stays there, and later writes and Snapshot are refused with an
// error naming the failed group's seqs and the acknowledged one. The
// group comes back at the next open: a double fault's stated
// deviation. Mutant killed: re-opening whatever the old log's close
// reports and wherever the directory lands, which replays the failed
// group and takes the next write at the seq after it.
func TestFailedRewindRefusesWrites(t *testing.T) {
	dir := t.TempDir()
	gen := walGen(11)
	ks := walFixtureKeys(t, gen)
	opts := Options{Durability: DurabilityFsync}
	m, err := OpenMatcher(dir, ks, opts)
	if err != nil {
		t.Fatal(err)
	}
	person := func(id EntityID) *Delta {
		return NewDelta().AddEntity(id, "person").AddValueTriple(id, "email", string(id)+"@x")
	}
	if _, _, err := m.Apply(person("kept")); err != nil {
		t.Fatal(err)
	}
	ack := m.Seq()

	restore := wal.FailSyncs(fmt.Errorf("injected fault"), true)
	_, outcomes, err := m.ApplyBatch([]*Delta{person("lost")})
	restore()
	if err == nil || outcomes[0].Err == nil || outcomes[0].Seq != ack {
		t.Fatalf("ApplyBatch with fsync and rewind failing: error %v, outcome %+v, want the error at seq %d", err, outcomes[0], ack)
	}
	if m.Seq() != ack {
		t.Fatalf("Seq %d after the failed batch, want the acknowledged %d", m.Seq(), ack)
	}
	refusal := fmt.Sprintf("seqs %d..%d", ack+1, ack+1)
	acked := fmt.Sprintf("acknowledged seq %d", ack)
	_, outcomes, err = m.ApplyBatch([]*Delta{person("next")})
	if err == nil || outcomes[0].Seq != ack || !strings.Contains(err.Error(), refusal) || !strings.Contains(err.Error(), acked) {
		t.Fatalf("the write after the double fault: error %v at seq %d, want a refusal at seq %d naming %q and %q", err, outcomes[0].Seq, ack, refusal, acked)
	}
	if err := m.Snapshot(); err == nil || !strings.Contains(err.Error(), acked) {
		t.Fatalf("Snapshot after the double fault: %v, want a refusal naming %q", err, acked)
	}
	if err := m.Close(); err == nil {
		t.Fatal("Close of a matcher whose log may hold the failed group reported nothing")
	}

	re, err := OpenMatcher(dir, ks, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Seq() != ack+1 {
		t.Fatalf("the next open is at seq %d, want %d: the failed group is still in the log", re.Seq(), ack+1)
	}
}

// TestBatchIsOneGroup: under DurabilityFsync a 1 000-delta ApplyBatch
// is one WAL group — one wal.fsync_ns and one wal.group_size
// observation, 1 000 wal.records — and a batch whose deltas all
// coalesce to no-ops writes and syncs nothing.
func TestBatchIsOneGroup(t *testing.T) {
	dir := t.TempDir()
	gen := walGen(7)
	m, err := OpenMatcher(dir, walFixtureKeys(t, gen), Options{Durability: DurabilityFsync})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	counts := func() (fsyncs, groups uint64, records int64) {
		snap := m.Metrics()
		return snap.Histograms["wal.fsync_ns"].Count, snap.Histograms["wal.group_size"].Count, snap.Counters["wal.records"]
	}
	var ds []*Delta
	for i := range 1000 {
		id := EntityID(fmt.Sprintf("p%d", i))
		ds = append(ds, NewDelta().AddEntity(id, "person").AddValueTriple(id, "email", fmt.Sprintf("m%d", i/2)))
	}
	if _, _, err := m.ApplyBatch(ds); err != nil {
		t.Fatal(err)
	}
	if f, g, r := counts(); f != 1 || g != 1 || r != 1000 || m.Seq() != 1000 {
		t.Fatalf("a 1 000-delta batch: %d fsyncs, %d groups, %d records, seq %d; want 1, 1, 1 000, 1 000", f, g, r, m.Seq())
	}
	if h := m.Metrics().Histograms["wal.group_size"]; h.Sum != 1000 {
		t.Fatalf("wal.group_size sums to %d, want 1 000", h.Sum)
	}
	log, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	noops := []*Delta{
		NewDelta().AddEntity("p0", "person"),
		NewDelta().AddValueTriple("p1", "email", "m0"),
		NewDelta().AddValueTriple("p2", "scratch", "v").RemoveValueTriple("p2", "scratch", "v"),
	}
	if _, _, err := m.ApplyBatch(noops); err != nil {
		t.Fatal(err)
	}
	if f, g, r := counts(); f != 1 || g != 1 || r != 1000 {
		t.Fatalf("a batch of no-ops: %d fsyncs, %d groups, %d records; want them unchanged", f, g, r)
	}
	if after, err := os.ReadFile(filepath.Join(dir, "wal.log")); err != nil || !bytes.Equal(after, log) {
		t.Fatalf("a batch of no-ops changed the log (%v)", err)
	}
}
