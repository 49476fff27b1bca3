package wal

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"graphkeys/internal/graph"
)

// FuzzSnapshotNames applies deltas whose names are drawn from the
// characters a text format would give meaning to — ':', '#', '"',
// space, tab, newline, carriage return, a Unicode space — and requires
// that WriteSnapshot never refuses and leaves a directory that replays
// to the same graph, name for name, with the same pairs.
//
// CI runs this as a fuzz smoke leg beside FuzzParseText.
func FuzzSnapshotNames(f *testing.F) {
	f.Add([]byte("abcdefghijklmnopqrstuvwxyz"))
	f.Add([]byte{0x01, 0x02, 0x21, 0x22, 0x41, 0x13, 0x04, 0x05, 0x16, 0x17, 0x11})
	f.Add([]byte{0x11, 0x03, 0x10, 0x11, 0x04, 0x20, 0x06, 0x11, 0x12, 0x00, 0x21, 0x05})
	f.Add([]byte{0x13, 0x00, 0x01, 0x02, 0x10, 0x11, 0x12, 0x14, 0x15, 0x17, 0x18})
	f.Fuzz(func(t *testing.T, data []byte) {
		alphabet := []string{"a", "b", ":", "#", `"`, " ", "\t", "\n", "\r", "\u00a0"}
		// Each name takes one length byte (1 to 4 characters) and then
		// one byte per character; a short input repeats from its start.
		pos := 0
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[pos%len(data)]
			pos++
			return b
		}
		name := func() string {
			s := ""
			for n := 1 + int(next()%4); n > 0; n-- {
				s += alphabet[int(next())%len(alphabet)]
			}
			return s
		}
		ids := []string{name(), name(), name()}
		types := []string{name(), name()}
		preds := []string{name(), name()}
		lit := name()

		dir := t.TempDir()
		s, err := Open(dir, SyncNone)
		if err != nil {
			t.Fatal(err)
		}
		g := graph.New()
		apply := func(d *graph.Delta) {
			// Deltas the graph refuses (an empty predicate, a type clash
			// between equal IDs) are not logged; skip them.
			_, _ = g.ApplyDeltaLogged(d, logHook(s))
		}
		for i, id := range ids {
			apply((&graph.Delta{}).AddEntity(id, types[i%2]))
		}
		apply((&graph.Delta{}).AddTriple(ids[0], preds[0], ids[1]))
		apply((&graph.Delta{}).AddValueTriple(ids[1], preds[1], lit))
		if next()%2 == 0 {
			apply((&graph.Delta{}).AddTriple(ids[1], preds[1], ids[2]))
		}
		var pairs [][2]string
		if _, ok := g.Entity(ids[0]); ok {
			if _, ok := g.Entity(ids[2]); ok {
				pairs = append(pairs, [2]string{ids[0], ids[2]})
			}
		}
		if err := s.WriteSnapshot(g, pairs); err != nil {
			t.Fatalf("WriteSnapshot refused: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		s2, err := Open(dir, SyncNone)
		if err != nil {
			t.Fatalf("directory does not reopen: %v", err)
		}
		if got := s2.SnapshotPairs(); len(pairs) > 0 && !reflect.DeepEqual(got, pairs) {
			t.Fatalf("snapshot pairs %q, want %q", got, pairs)
		}
		if n := len(s2.Records()); n != 0 {
			t.Fatalf("%d records past the snapshot, want 0", n)
		}
		if got, want := nameLevel(s2.SnapshotGraph()), nameLevel(g); !slices.Equal(got, want) {
			t.Fatalf("snapshot graph differs:\ngot  %q\nwant %q", got, want)
		}
		s2.Close()
	})
}

// nameLevel renders a graph's live entities and triples by name, sorted:
// the form in which a snapshot plus log must reproduce the graph.
func nameLevel(g *graph.Graph) []string {
	var out []string
	g.EachEntity(func(n graph.NodeID) {
		out = append(out, fmt.Sprintf("entity %q %q", g.Label(n), g.TypeName(g.TypeOf(n))))
	})
	g.EachTriple(func(s graph.NodeID, p graph.PredID, o graph.NodeID) {
		out = append(out, fmt.Sprintf("triple %q %q %q value=%v", g.Label(s), g.PredName(p), g.Label(o), g.IsValue(o)))
	})
	slices.Sort(out)
	return out
}
