package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"graphkeys/internal/graph"
)

func seedGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New()
	d := (&graph.Delta{}).AddEntity("a", "T").AddEntity("b", "T").AddEntity("lonely", "T").
		AddValueTriple("a", "p", "1").AddValueTriple("b", "p", "1").AddTriple("a", "knows", "b")
	if _, err := g.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestWriteSeed: the seed is the first snapshot, at seq 1, over a
// header-only log; the next record is seq 2 and replays on top of it.
func TestWriteSeed(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	g, pairs := seedGraph(t), [][2]string{{"a", "b"}}
	if err := s.WriteSeed(g, pairs); err != nil {
		t.Fatal(err)
	}
	if s.Seq() != 1 || len(readLog(t, dir)) != len(logMagic) {
		t.Fatalf("after the seed: seq %d, log of %d bytes; want 1 and the header alone", s.Seq(), len(readLog(t, dir)))
	}
	if err := s.WriteSeed(g, pairs); err == nil {
		t.Fatal("a second seed of the same store was accepted")
	}
	logDeltas(t, g, s, (&graph.Delta{}).AddValueTriple("lonely", "q", "z"))
	if s.Seq() != 2 {
		t.Fatalf("first record after the seed is seq %d, want 2", s.Seq())
	}
	s.Close()

	s2, err := Open(dir, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.SnapshotPairs(); s2.Seq() != 2 || len(got) != 1 || got[0] != pairs[0] || len(s2.Records()) != 1 {
		t.Fatalf("reopened at seq %d with pairs %v and %d records; want 2, %v, 1", s2.Seq(), got, len(s2.Records()), pairs)
	}
	if err := s2.WriteSeed(g, pairs); err == nil {
		t.Fatal("a seed of a directory at seq 2 was accepted")
	}
	s2.Close()
	rg, _, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := graphText(t, rg), graphText(t, g); !bytes.Equal(got, want) {
		t.Fatalf("seed+log replay diverges:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestWriteSeedFailureLeavesDirectoryFresh: the disk fails after the
// snapshot was renamed into place (the log's fsync). Nothing is
// acknowledged: seq is 0 again, no snapshot or temp file is left, and
// the directory seeds cleanly afterwards.
func TestWriteSeedFailureLeavesDirectoryFresh(t *testing.T) {
	dir := t.TempDir()
	ff := installFailFile(t)
	s, err := Open(dir, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	ff.failS = true
	g := seedGraph(t)
	if err := s.WriteSeed(g, nil); err == nil {
		t.Fatal("seed succeeded over a failing fsync")
	}
	if s.Seq() != 0 {
		t.Fatalf("failed seed left the store at seq %d", s.Seq())
	}
	s.Close()
	for _, name := range []string{snapName, snapName + ".tmp"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("failed seed left %s behind (stat: %v)", name, err)
		}
	}
	testFileHook = nil
	s2, err := Open(dir, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Seq() != 0 || s2.SnapshotGraph() != nil {
		t.Fatalf("directory not fresh after the failed seed: seq %d, snapshot loaded: %v", s2.Seq(), s2.SnapshotGraph() != nil)
	}
	if err := s2.WriteSeed(g, nil); err != nil {
		t.Fatal(err)
	}
}
