package graphkeys

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"graphkeys/internal/chase"
	"graphkeys/internal/gen"
)

// chainsWorkload is the benchmark's google-chains input scaled down: a
// Google-flavoured graph plus two planted recursive chains (c = 2,
// d = 2), whose entities carry the "c_" prefix.
func chainsWorkload(t *testing.T) (*Graph, *KeySet) {
	t.Helper()
	w, err := gen.Google(gen.FlavorConfig{Seed: 1, Scale: 2})
	if err != nil {
		t.Fatal(err)
	}
	err = gen.PlantChains(w, gen.SyntheticConfig{
		Seed: 14, TypeGroups: 2, EntitiesPerType: 48, DupFraction: 0.2, NearMissFraction: 0.3,
		Chain: 2, Radius: 2, Labels: 6000, NoiseEdgesPerEntity: 1,
	}, "c_")
	if err != nil {
		t.Fatal(err)
	}
	return &Graph{g: w.Graph}, &KeySet{set: w.Keys}
}

// wholeGraphDelta returns g as one delta — every live entity, then every
// triple: what a bulk /apply of a whole graph is, and what binaries
// before SeedMatcher logged as the first record of a fresh directory.
func wholeGraphDelta(g *Graph) *Delta {
	d := NewDelta()
	g.EachEntity(func(id EntityID, typeName string) { d.AddEntity(id, typeName) })
	g.EachTriple(func(s EntityID, pred, obj string, isValue bool) {
		if isValue {
			d.AddValueTriple(s, pred, obj)
		} else {
			d.AddEntityTriple(s, pred, obj)
		}
	})
	return d
}

// assertOneChase is the cost guard of the cold start, in counts: the
// matcher's last pass may have checked at most twice the candidates of
// a sequential chase of the graph it now holds. (Repairing a whole
// graph as if it were a small delta checked 174 times as many on the
// google-chains input.)
func assertOneChase(t *testing.T, m *Matcher, ks *KeySet) {
	t.Helper()
	full, err := chase.Run(m.Graph().g, ks.set, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Candidates == 0 || len(full.Steps) == 0 {
		t.Fatalf("vacuous input: %d candidates, %d steps", full.Candidates, len(full.Steps))
	}
	if st := m.LastStats(); st.Checked > 2*full.Candidates {
		t.Fatalf("pass checked %d pairs, a sequential chase of the same graph has %d candidates (%.1f×, want ≤ 2×): %+v",
			st.Checked, full.Candidates, float64(st.Checked)/float64(full.Candidates), st)
	}
}

// TestSeedPassCostsOneChase loads an empty matcher with a whole graph as
// one delta, as a bulk /apply does.
func TestSeedPassCostsOneChase(t *testing.T) {
	g, ks := chainsWorkload(t)
	m, err := NewMatcher(NewGraph(), ks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seed := wholeGraphDelta(g)
	if want := g.NumEntities() + g.NumTriples(); seed.Len() != want {
		t.Fatalf("seed delta has %d ops for %d entities and triples", seed.Len(), want)
	}
	if _, _, err := m.Apply(seed); err != nil {
		t.Fatal(err)
	}
	assertOneChase(t, m, ks)
	full, err := Match(g, ks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Result(); !reflect.DeepEqual(sortedPairs(got.Matches), sortedPairs(full.Matches)) {
		t.Fatalf("seeded matcher holds %d matches, Match on the source graph %d", len(got.Matches), len(full.Matches))
	}
}

// TestSnapshotNotDurable: an in-memory matcher refuses Snapshot with the
// sentinel internal/serve tells apart from a failed snapshot.
func TestSnapshotNotDurable(t *testing.T) {
	ks, err := ParseKeys("key P for person {\n\tx -email-> e*\n}")
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMatcher(NewGraph(), ks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Snapshot(); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("Snapshot on an in-memory matcher: %v, want ErrNotDurable", err)
	}
}

// TestWALOnlyRecovery reopens a directory that never saw a snapshot: a
// seed record plus single-op flips. Replay must reach the live sequence
// number and result, and — the log merges into one pass that at least
// doubles the empty graph — cost one chase, not a repair of everything.
func TestWALOnlyRecovery(t *testing.T) {
	g, ks := chainsWorkload(t)
	dir := t.TempDir()
	m, err := OpenMatcher(dir, ks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Apply(wholeGraphDelta(g)); err != nil {
		t.Fatal(err)
	}
	// Flips: remove the value triples of chain entities one delta each,
	// and put every other one back.
	const flips = 24
	n := 0
	g.EachTriple(func(s EntityID, pred, obj string, isValue bool) {
		if n == flips || !isValue || !strings.HasPrefix(s, "c_") {
			return
		}
		n++
		if _, _, err := m.Apply(NewDelta().RemoveValueTriple(s, pred, obj)); err != nil {
			t.Fatal(err)
		}
		if n%2 == 0 {
			if _, _, err := m.Apply(NewDelta().AddValueTriple(s, pred, obj)); err != nil {
				t.Fatal(err)
			}
		}
	})
	if n != flips {
		t.Fatalf("only %d chain value triples to flip", n)
	}
	wantSeq, want := m.Seq(), m.Result()
	if wantSeq != 1+flips+flips/2 {
		t.Fatalf("live matcher at seq %d after a seed and %d flip deltas", wantSeq, flips+flips/2)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot")); !os.IsNotExist(err) {
		t.Fatalf("directory has a snapshot (stat: %v); the test wants the log alone", err)
	}

	re, err := OpenMatcher(dir, ks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Seq() != wantSeq {
		t.Fatalf("reopened at seq %d, live matcher was at %d", re.Seq(), wantSeq)
	}
	if got := re.Result(); !reflect.DeepEqual(got.Matches, want.Matches) {
		t.Fatalf("reopened matcher holds %d matches, live one held %d", len(got.Matches), len(want.Matches))
	}
	assertOneChase(t, re, ks)
}
