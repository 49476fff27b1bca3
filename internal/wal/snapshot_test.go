package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"graphkeys/internal/graph"
)

// TestOpensV1Directory: testdata/v1 is a directory the text snapshot
// writer left — pairs, an isolated entity, IDs with colons, quotes and
// a leading '#', a tombstoned entity — plus one record logged after
// the snapshot. It opens to the graph and pairs that writer's graph
// held, and a snapshot rewrites it as version 2 with nothing lost.
func TestOpensV1Directory(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{snapName, logName} {
		b, err := os.ReadFile(filepath.Join("testdata", "v1", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{
		`entity "#hash" "person"`,
		`entity "lonely:1" "person"`,
		`entity "ns:alb:1" "album"`,
		`entity "ns:alb:2" "album"`,
		`entity "say\"hi" "artist"`,
		`triple "lonely:1" "name_of" "after" value=true`,
		`triple "ns:alb:1" "name_of" "Say \"hi\"" value=true`,
		`triple "ns:alb:1" "recorded_by" "say\"hi" value=false`,
		`triple "ns:alb:2" "name_of" "Say \"hi\"" value=true`,
		`triple "ns:alb:2" "recorded_by" "say\"hi" value=false`,
		`triple "say\"hi" "knows" "#hash" value=false`,
		`triple "say\"hi" "name_of" "tab\there\nnl" value=true`,
	}
	wantPairs := [][2]string{{"ns:alb:1", "ns:alb:2"}}
	for _, version := range []string{"v1", "v2"} {
		s, err := Open(dir, SyncNone)
		if err != nil {
			t.Fatalf("%s: %v", version, err)
		}
		if got := s.SnapshotPairs(); !reflect.DeepEqual(got, wantPairs) {
			t.Fatalf("%s: pairs %q, want %q", version, got, wantPairs)
		}
		g := s.SnapshotGraph()
		for _, rec := range s.Records() {
			if _, err := g.ApplyDelta(graph.NewDeltaOps(rec.Ops)); err != nil {
				t.Fatal(err)
			}
		}
		if got := nameLevel(g); !slices.Equal(got, want) {
			t.Fatalf("%s: graph\n%q\nwant\n%q", version, got, want)
		}
		if version == "v1" {
			if err := s.WriteSnapshot(g, wantPairs); err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(filepath.Join(dir, snapName))
			if err != nil || !bytes.HasPrefix(b, []byte(snapHeader+" seq=7\n")) {
				t.Fatalf("rewritten snapshot does not start with the v2 header at seq 7 (%v)", err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSnapshotByteFlips: every byte of a snapshot is covered, the
// header line included — flipping any one makes Open fail.
func TestSnapshotByteFlips(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New()
	logDeltas(t, g, s,
		(&graph.Delta{}).AddEntity("a", "T").AddEntity("b", "T").AddEntity("lonely", "U").
			AddValueTriple("a", "p", "1").AddValueTriple("b", "p", "1").AddTriple("a", "q", "b"))
	if err := s.WriteSnapshot(g, [][2]string{{"a", "b"}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapName)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range good {
		flipped := slices.Clone(good)
		flipped[i] ^= 0xff
		if err := os.WriteFile(path, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := Open(dir, SyncNone); err == nil {
			s.Close()
			t.Fatalf("Open accepted the snapshot with byte %d of %d flipped", i, len(good))
		}
	}
}
