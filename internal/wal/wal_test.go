package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"graphkeys/internal/graph"
)

func graphText(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// logDeltas applies the deltas to g through the store's write-ahead
// hook, so the log records exactly what the graph absorbed. It uses
// the Begin/commit form, the one the durable matcher wires up.
func logDeltas(t *testing.T, g *graph.Graph, s *Store, ds ...*graph.Delta) {
	t.Helper()
	for _, d := range ds {
		if _, err := g.ApplyDeltaLogged(d, func(ops []graph.DeltaOp) (graph.DeltaCommit, error) {
			_, commit, err := s.Begin(ops)
			if err != nil {
				return nil, err
			}
			return graph.DeltaCommit(commit), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// appendOps begins and commits one record of ops, returning its seq.
func appendOps(s *Store, ops []graph.DeltaOp) (uint64, error) {
	seq, commit, err := s.Begin(ops)
	if err != nil {
		return 0, err
	}
	if err := commit(); err != nil {
		return 0, err
	}
	return seq, nil
}

func TestAppendReopenReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New()
	logDeltas(t, g, s,
		(&graph.Delta{}).AddEntity("a", "T").AddValueTriple("a", "p", "1"),
		(&graph.Delta{}).AddEntity("b", "T").AddValueTriple("b", "p", "1").AddTriple("b", "knows", "a"),
		(&graph.Delta{}).RemoveValueTriple("a", "p", "1").AddValueTriple("a", "p", "2"),
		(&graph.Delta{}).AddEntity("c", "T").RemoveEntity("b"),
	)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	rg, recs, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("replayed %d records, want 4", len(recs))
	}
	if got, want := graphText(t, rg), graphText(t, g); !bytes.Equal(got, want) {
		t.Fatalf("replay diverges:\ngot:\n%s\nwant:\n%s", got, want)
	}
	// Byte-identical reconstruction includes the dense node IDs, since
	// allocation order is log order.
	if rg.NumNodes() != g.NumNodes() {
		t.Fatalf("replayed NumNodes = %d, want %d", rg.NumNodes(), g.NumNodes())
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New()
	logDeltas(t, g, s,
		(&graph.Delta{}).AddEntity("a", "T").AddValueTriple("a", "p", "1"),
		(&graph.Delta{}).AddEntity("b", "T").AddValueTriple("b", "p", "2"),
	)
	s.Close()

	// Tear the tail: drop the last 3 bytes of the log.
	path := filepath.Join(dir, logName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	recs := s2.Records()
	if len(recs) != 1 {
		t.Fatalf("recovered %d records, want 1 (torn second record dropped)", len(recs))
	}
	if recs[0].Seq != 1 {
		t.Fatalf("surviving record seq = %d, want 1", recs[0].Seq)
	}
	// The log must accept appends again, continuing the sequence.
	seq, err := appendOps(s2, []graph.DeltaOp{{Kind: graph.OpAddEntity, ID: "c", TypeName: "T"}})
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 {
		t.Fatalf("post-recovery seq = %d, want 2", seq)
	}
}

func TestSnapshotCompactsAndCoversRecords(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New()
	logDeltas(t, g, s,
		(&graph.Delta{}).AddEntity("a", "T").AddValueTriple("a", "p", "1"),
		(&graph.Delta{}).AddEntity("b", "T").AddValueTriple("b", "p", "1"),
	)
	pairs := [][2]string{{"a", "b"}}
	if err := s.WriteSnapshot(g, pairs); err != nil {
		t.Fatal(err)
	}
	// Post-snapshot deltas land in the (now truncated) log.
	logDeltas(t, g, s, (&graph.Delta{}).AddValueTriple("a", "q", "z"))
	s.Close()

	s2, err := Open(dir, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	if s2.SnapshotGraph() == nil {
		t.Fatal("snapshot not loaded")
	}
	if got := s2.SnapshotPairs(); len(got) != 1 || got[0] != pairs[0] {
		t.Fatalf("snapshot pairs = %v, want %v", got, pairs)
	}
	if got := len(s2.Records()); got != 1 {
		t.Fatalf("records after snapshot = %d, want 1", got)
	}
	// The dir is single-opener: Replay must be rejected while s2 holds
	// the lock, and succeed once it is released.
	if _, _, err := Replay(dir); err == nil {
		t.Fatal("Replay succeeded while the store was open")
	}
	s2.Close()
	rg, _, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := graphText(t, rg), graphText(t, g); !bytes.Equal(got, want) {
		t.Fatalf("snapshot+log replay diverges:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestSnapshotKeepsIsolatedEntities(t *testing.T) {
	// The graph text format is triples-only; entities without incident
	// triples (never attached, or stripped by removals) must survive
	// compaction anyway.
	dir := t.TempDir()
	s, err := Open(dir, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New()
	logDeltas(t, g, s,
		(&graph.Delta{}).AddEntity("lonely", "person"),
		(&graph.Delta{}).AddEntity("a", "person").AddValueTriple("a", "p", "1"),
		(&graph.Delta{}).AddEntity("b", "person").AddValueTriple("b", "q", "2").RemoveValueTriple("b", "q", "2"),
	)
	if err := s.WriteSnapshot(g, nil); err != nil {
		t.Fatal(err)
	}
	s.Close()

	rg, _, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"lonely", "a", "b"} {
		if _, ok := rg.Entity(id); !ok {
			t.Fatalf("entity %q lost by snapshot compaction", id)
		}
	}
	if rg.NumEntities() != g.NumEntities() {
		t.Fatalf("replayed NumEntities = %d, want %d", rg.NumEntities(), g.NumEntities())
	}
	// And the revived entity is fully usable: a triple may attach to it.
	if _, err := rg.ApplyDelta((&graph.Delta{}).AddValueTriple("lonely", "p", "x")); err != nil {
		t.Fatalf("triple on revived isolated entity: %v", err)
	}
}

func TestSnapshotRejectsUnrepresentableNames(t *testing.T) {
	// Entity IDs with tabs fit the binary log but not the text
	// snapshot; WriteSnapshot must refuse (leaving the log authoritative)
	// instead of writing a snapshot that can never be reopened.
	dir := t.TempDir()
	s, err := Open(dir, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := graph.New()
	logDeltas(t, g, s,
		(&graph.Delta{}).AddEntity("x\ty", "T").AddValueTriple("x\ty", "p", "1"))
	if err := s.WriteSnapshot(g, nil); err == nil {
		t.Fatal("snapshot of a tab-containing entity ID did not error")
	}
	// The log is still authoritative and replayable.
	s.Close()
	rg, recs, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("replayed %d records, want 1", len(recs))
	}
	if _, ok := rg.Entity("x\ty"); !ok {
		t.Fatal("tab-containing entity lost from the log")
	}
}

func TestTornTailHugeLengthPrefix(t *testing.T) {
	// A torn header whose garbage length field decodes huge must not
	// make Open allocate gigabytes; the scan bounds it by the file.
	dir := t.TempDir()
	s, err := Open(dir, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New()
	logDeltas(t, g, s, (&graph.Delta{}).AddEntity("a", "T"))
	s.Close()

	path := filepath.Join(dir, logName)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := len(s2.Records()); got != 1 {
		t.Fatalf("recovered %d records, want 1", got)
	}
}

// corruptSnapshots are snapshot files whose header counts lie: each
// must make Open fail, not panic or allocate what the header claims.
var corruptSnapshots = []struct{ name, snap string }{
	{"negative pairs", snapHeader + " seq=1 pairs=-1 isolated=0\n" + snapGraphSep + "\n"},
	{"negative isolated", snapHeader + " seq=1 pairs=0 isolated=-5\n" + snapGraphSep + "\n"},
	{"huge pairs", snapHeader + " seq=1 pairs=9223372036854775807 isolated=0\na\tb\n" + snapGraphSep + "\n"},
	{"huge isolated", snapHeader + " seq=1 pairs=0 isolated=9223372036854775807\na:T\n" + snapGraphSep + "\n"},
	{"pairs past eof", snapHeader + " seq=1 pairs=3 isolated=0\na\tb\n"},
	{"isolated past eof", snapHeader + " seq=1 pairs=0 isolated=2\na:T\n" + snapGraphSep + "\n"},
	{"count overflows", snapHeader + " seq=1 pairs=99999999999999999999 isolated=0\n" + snapGraphSep + "\n"},
	{"no header newline", snapHeader + " seq=1 pairs=0 isolated=0"},
}

func TestCorruptSnapshotHeaderRejected(t *testing.T) {
	for _, c := range corruptSnapshots {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, snapName), []byte(c.snap), 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(dir, SyncNone)
			if err == nil {
				s.Close()
				t.Fatalf("Open accepted the snapshot %q", c.snap)
			}
		})
	}
}

func TestSnapshotCrashBeforeTruncate(t *testing.T) {
	// Simulate the crash window between snapshot rename and log
	// truncation: a log still holding records the snapshot covers must
	// not double-apply them.
	dir := t.TempDir()
	s, err := Open(dir, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New()
	logDeltas(t, g, s, (&graph.Delta{}).AddEntity("a", "T").AddValueTriple("a", "p", "1"))
	logData, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot(g, nil); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Restore the pre-truncation log: snapshot present AND records <= snapSeq.
	if err := os.WriteFile(filepath.Join(dir, logName), logData, 0o644); err != nil {
		t.Fatal(err)
	}

	rg, recs, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("covered records replayed: %v", recs)
	}
	if got, want := graphText(t, rg), graphText(t, g); !bytes.Equal(got, want) {
		t.Fatalf("replay diverges after crash window:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestAppendFailureDisablesStore(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := appendOps(s, []graph.DeltaOp{{Kind: graph.OpAddEntity, ID: "a", TypeName: "T"}}); err != nil {
		t.Fatal(err)
	}
	// Sabotage the file handle: the next Append's write fails, and the
	// rewind fails too, so the store must mark itself broken instead of
	// risking acknowledged records after garbage.
	s.f.Close()
	if _, err := appendOps(s, []graph.DeltaOp{{Kind: graph.OpAddEntity, ID: "b", TypeName: "T"}}); err == nil {
		t.Fatal("append on a closed file succeeded")
	}
	if _, err := appendOps(s, []graph.DeltaOp{{Kind: graph.OpAddEntity, ID: "c", TypeName: "T"}}); err == nil {
		t.Fatal("append on a broken store succeeded")
	}
	// A broken store still holds the dir lock until Close.
	if _, err := Open(dir, SyncAlways); err == nil {
		t.Fatal("second Open succeeded while the broken store held the lock")
	}
	s.Close()
	// The good prefix survives for the next Open.
	s2, err := Open(dir, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := len(s2.Records()); got != 1 {
		t.Fatalf("recovered %d records, want 1", got)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	ops := []graph.DeltaOp{
		{Kind: graph.OpAddEntity, ID: "weird\tid\n", TypeName: "T"},
		{Kind: graph.OpAddTriple, Subject: "weird\tid\n", Pred: "p", Object: "véal\x00ue", ObjectIsValue: true},
		{Kind: graph.OpRemoveTriple, Subject: "a", Pred: "q", Object: "b"},
		{Kind: graph.OpRemoveEntity, ID: "a"},
	}
	payload := encodePayload(42, ops)
	rec, err := decodePayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Seq != 42 || len(rec.Ops) != len(ops) {
		t.Fatalf("decoded %+v", rec)
	}
	for i := range ops {
		if rec.Ops[i] != ops[i] {
			t.Fatalf("op %d: %+v != %+v", i, rec.Ops[i], ops[i])
		}
	}
}
