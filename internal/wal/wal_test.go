package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
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
// hook, so the log records exactly what the graph absorbed, each delta
// a group of one.
func logDeltas(t *testing.T, g *graph.Graph, s *Store, ds ...*graph.Delta) {
	t.Helper()
	for _, d := range ds {
		if _, err := g.ApplyDeltaLogged(d, logHook(s)); err != nil {
			t.Fatal(err)
		}
	}
}

// logHook adds each record to the store and commits it at once, a
// group of one, inside the graph's write path: the graph lowers the
// delta only once its group is durable.
func logHook(s *Store) graph.DeltaLog {
	return func(ops []graph.DeltaOp) error {
		if _, err := s.Add(ops); err != nil {
			return err
		}
		return s.Commit()
	}
}

// appendOps adds ops as a group of one and commits it, returning its
// seq.
func appendOps(s *Store, ops []graph.DeltaOp) (uint64, error) {
	seq, err := s.Add(ops)
	if err != nil {
		return 0, err
	}
	if err := s.Commit(); err != nil {
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
	// Named for the contract it replaced: a name with a tab, a newline
	// or a colon fits the binary log, and it fits the snapshot's tables
	// just as well. The snapshot compacts the log, and the name reads
	// back as itself.
	dir := t.TempDir()
	s, err := Open(dir, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := graph.New()
	logDeltas(t, g, s,
		(&graph.Delta{}).AddEntity("x\ty", "T:\n").AddValueTriple("x\ty", " p\t", "1").
			AddEntity("#\"z", "T").AddTriple("x\ty", "rel", "#\"z"))
	if err := s.WriteSnapshot(g, [][2]string{{"#\"z", "x\ty"}}); err != nil {
		t.Fatalf("snapshot of tab-containing names: %v", err)
	}
	s.Close()
	rg, recs, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("replayed %d records past the snapshot, want 0", len(recs))
	}
	if got, want := nameLevel(rg), nameLevel(g); !slices.Equal(got, want) {
		t.Fatalf("replayed graph:\n%q\nwant\n%q", got, want)
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

// corruptSnapshots are snapshot files that lie: version 1 headers with
// lying counts, which Open refuses by name before it reads a count, and
// v2 tables whose counts, indexes, names or checksum are wrong. Each
// must make Open fail, not panic or allocate what the file claims.
var corruptSnapshots = []struct{ name, snap string }{
	{"negative pairs", snapHeaderV1 + " seq=1 pairs=-1 isolated=0\n#graph\n"},
	{"negative isolated", snapHeaderV1 + " seq=1 pairs=0 isolated=-5\n#graph\n"},
	{"huge pairs", snapHeaderV1 + " seq=1 pairs=9223372036854775807 isolated=0\na\tb\n#graph\n"},
	{"huge isolated", snapHeaderV1 + " seq=1 pairs=0 isolated=9223372036854775807\na:T\n#graph\n"},
	{"pairs past eof", snapHeaderV1 + " seq=1 pairs=3 isolated=0\na\tb\n"},
	{"isolated past eof", snapHeaderV1 + " seq=1 pairs=0 isolated=2\na:T\n#graph\n"},
	{"count overflows", snapHeaderV1 + " seq=1 pairs=99999999999999999999 isolated=0\n#graph\n"},
	{"no header newline", snapHeaderV1 + " seq=1 pairs=0 isolated=0"},

	// The v2 rows vary snapV2(validV2...), a two-entity graph whose
	// pair is (a, b); the row name says what is wrong.
	{"v2 huge name count", snapV2(1<<62, "p", 1, "T", 2, 1, "abv", 0, 1, 0, 1, 1, 1, 2, 1, 0, 2, 1, 0, 2, 1, "a", "b")},
	{"v2 large entity count", snapV2(1, "p", 1, "T", 1<<26, 1, "abv", 0, 1, 0, 1, 1, 1, 2, 1, 0, 2, 1, 0, 2, 1, "a", "b")},
	{"v2 huge value count", snapV2(1, "p", 1, "T", 2, 1<<62, "abv", 0, 1, 0, 1, 1, 1, 2, 1, 0, 2, 1, 0, 2, 1, "a", "b")},
	{"v2 large triple count", snapV2(1, "p", 1, "T", 2, 1, "abv", 0, 1, 0, 1, 1, 1, 1<<26, 1, 0, 2, 1, 0, 2, 1, "a", "b")},
	{"v2 huge degree", snapV2(1, "p", 1, "T", 2, 1, "abv", 0, 1, 0, 1, 1, 1, 2, 1<<62, 0, 2, 1, 0, 2, 1, "a", "b")},
	{"v2 huge pair count", snapV2(1, "p", 1, "T", 2, 1, "abv", 0, 1, 0, 1, 1, 1, 2, 1, 0, 2, 1, 0, 2, 1<<62, "a", "b")},
	{"v2 label past the heap", snapV2(1, "p", 1, "T", 2, 1, "abv", 0, 1, 0, 1, 1, 9, 2, 1, 0, 2, 1, 0, 2, 1, "a", "b")},
	{"v2 heap longer than its labels", snapV2(1, "p", 1, "T", 2, 1, "abvw", 0, 1, 0, 1, 1, 1, 2, 1, 0, 2, 1, 0, 2, 1, "a", "b")},
	{"v2 type out of range", snapV2(1, "p", 1, "T", 2, 1, "abv", 0, 1, 2, 1, 1, 1, 2, 1, 0, 2, 1, 0, 2, 1, "a", "b")},
	{"v2 value with a type", snapV2(1, "p", 1, "T", 2, 1, "abv", 0, 1, 0, 1, 3, 1, 2, 1, 0, 2, 1, 0, 2, 1, "a", "b")},
	{"v2 entity count does not match", snapV2(1, "p", 1, "T", 2, 1, "abv", 0, 1, 1, 1, 1, 1, 2, 1, 0, 2, 1, 0, 2, 1, "a", "b")},
	{"v2 predicate out of range", snapV2(1, "p", 1, "T", 2, 1, "abv", 0, 1, 0, 1, 1, 1, 2, 1, 1, 2, 1, 0, 2, 1, "a", "b")},
	{"v2 node out of range", snapV2(1, "p", 1, "T", 2, 1, "abv", 0, 1, 0, 1, 1, 1, 2, 1, 0, 3, 1, 0, 2, 1, "a", "b")},
	{"v2 duplicate predicate", snapV2(2, "p", "p", 1, "T", 2, 1, "abv", 0, 1, 0, 1, 1, 1, 2, 1, 0, 2, 1, 1, 2, 1, "a", "b")},
	{"v2 duplicate type", snapV2(1, "p", 2, "T", "T", 2, 1, "abv", 0, 1, 2, 1, 1, 1, 2, 1, 0, 2, 1, 0, 2, 1, "a", "b")},
	{"v2 duplicate label", snapV2(1, "p", 1, "T", 2, 1, "aav", 0, 1, 0, 1, 1, 1, 2, 1, 0, 2, 1, 0, 2, 1, "a", "b")},
	{"v2 duplicate triple", snapV2(1, "p", 1, "T", 2, 1, "abv", 0, 1, 0, 1, 1, 1, 3, 2, 0, 2, 0, 2, 1, 0, 2, 1, "a", "b")},
	{"v2 fewer triples than counted", snapV2(1, "p", 1, "T", 2, 1, "abv", 0, 1, 0, 1, 1, 1, 3, 1, 0, 2, 1, 0, 2, 1, "a", "b")},
	{"v2 more triples than counted", snapV2(1, "p", 1, "T", 2, 1, "abv", 0, 1, 0, 1, 1, 1, 1, 1, 0, 2, 1, 0, 2, 1, "a", "b")},
	{"v2 pair past eof", snapV2(1, "p", 1, "T", 2, 1, "abv", 0, 1, 0, 1, 1, 1, 2, 1, 0, 2, 1, 0, 2, 2, "a", "b")},
	{"v2 trailing bytes", snapV2(1, "p", 1, "T", 2, 1, "abv", 0, 1, 0, 1, 1, 1, 2, 1, 0, 2, 1, 0, 2, 1, "a", "b", 0)},
	{"v2 truncated body", snapV2(1, "p", 1, "T", 2, 1, "abv", 0, 1, 0, 1, 1, 1, 2, 1, 0)},
	{"v2 bad seq", snapV2Under(snapHeader+" seq=x", validV2...)},
	{"v2 truncated checksum", goodV2[:len(goodV2)-1]},
	{"v2 header only", snapHeader + " seq=1\n"},
}

// validV2 is the body of a good v2 snapshot for snapV2: predicate p,
// type T, entities a and b, each with (p, "v"), and the pair (a, b).
var validV2 = []any{1, "p", 1, "T", 2, 1, "abv", 0, 1, 0, 1, 1, 1, 2, 1, 0, 2, 1, 0, 2, 1, "a", "b"}

var goodV2 = snapV2(validV2...)

// snapV2 returns a v2 snapshot at seq 1 whose body is the fields — an
// int as a uvarint, a string length-prefixed — with a checksum that
// matches, so the reader's other checks are what must refuse it.
func snapV2(fields ...any) string { return snapV2Under(snapHeader+" seq=1", fields...) }

// snapV2Under is snapV2 under another header line.
func snapV2Under(header string, fields ...any) string {
	b := []byte(header + "\n")
	for _, f := range fields {
		switch f := f.(type) {
		case int:
			b = binary.AppendUvarint(b, uint64(f))
		case string:
			b = binary.AppendUvarint(b, uint64(len(f)))
			b = append(b, f...)
		}
	}
	return string(binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b)))
}

// TestSnapV2Valid: the rows of corruptSnapshots vary a snapshot that
// opens, so each fails for the reason its name gives.
func TestSnapV2Valid(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapName), []byte(snapV2(validV2...)), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := []string{`entity "a" "T"`, `entity "b" "T"`, `triple "a" "p" "v" value=true`, `triple "b" "p" "v" value=true`}
	if got := nameLevel(s.SnapshotGraph()); !slices.Equal(got, want) || s.Seq() != 1 {
		t.Fatalf("seq %d, graph %q; want 1, %q", s.Seq(), got, want)
	}
	if got := s.SnapshotPairs(); !reflect.DeepEqual(got, [][2]string{{"a", "b"}}) {
		t.Fatalf("pairs %q", got)
	}
}

func TestCorruptSnapshotHeaderRejected(t *testing.T) {
	for _, c := range corruptSnapshots {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, snapName), []byte(c.snap), 0o644); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s, err := Open(dir, SyncNone)
			runtime.ReadMemStats(&after)
			if err == nil {
				s.Close()
				t.Fatalf("Open accepted the snapshot %q", c.snap)
			}
			if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
				t.Fatalf("Open allocated %d bytes on a %d-byte snapshot", n, len(c.snap))
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
	// Sabotage the file handle: the next commit's write fails, and the
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
	group := encodeOps(make([]byte, groupHead), ops)
	group = encodeOps(group, ops[:1])
	payload, rest, ok := nextFrame(sealGroup(group, 42, 2))
	if !ok || len(rest) != 0 {
		t.Fatalf("sealed group is not one whole frame (ok %v, %d bytes after it)", ok, len(rest))
	}
	recs, err := decodeGroup(payload)
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{{Seq: 42, Ops: ops}, {Seq: 43, Ops: ops[:1]}}
	if !reflect.DeepEqual(recs, want) {
		t.Fatalf("decoded %+v, want %+v", recs, want)
	}
}
