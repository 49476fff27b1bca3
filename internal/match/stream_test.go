package match

import (
	"fmt"
	"iter"
	"reflect"
	"slices"
	"strings"
	"testing"

	"graphkeys/internal/eqrel"
	"graphkeys/internal/fixtures"
	"graphkeys/internal/gen"
	"graphkeys/internal/graph"
	"graphkeys/internal/keys"
	"graphkeys/internal/obs"
	"graphkeys/internal/testutil"
)

// streamCase is one workload the candidate pipeline's properties are
// checked on.
type streamCase struct {
	name string
	g    *graph.Graph
	set  *keys.Set
}

// streamCases sweeps the paper fixtures, every internal/testutil
// generator configuration (seed plus two churn rounds applied, so the
// graph carries removals and re-adds), synthetic chains across radii,
// both flavored generators and the hand-written shapes.
func streamCases(t *testing.T) []streamCase {
	t.Helper()
	cases := []streamCase{
		{"music", fixtures.MusicGraph(), fixtures.MusicKeys()},
		{"company", fixtures.CompanyGraph(), fixtures.CompanyKeys()},
		{"address", fixtures.AddressGraph(), fixtures.AddressKeys()},
	}
	for i, cfg := range []testutil.Config{
		{Seed: 1},
		{Seed: 2, Groups: 6, PerGroup: 10, Overlap: 0.5},
		{Seed: 3, Bands: true},
		{Seed: 4, Bands: true, EntityChurn: true, Coalesce: true, Overlap: 0.3},
		{Seed: 5, Groups: 2, PerGroup: 4, Bands: true, EntityChurn: true},
	} {
		gn := testutil.New(cfg)
		g := graph.New()
		if _, err := g.ApplyDelta(gn.Seed()); err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			for _, d := range gn.Round(round) {
				if _, err := g.ApplyDelta(d); err != nil {
					t.Fatal(err)
				}
			}
		}
		set, err := keys.ParseString(gn.Keys())
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, streamCase{fmt.Sprintf("testutil-%d", i), g, set})
	}
	for _, cfg := range []struct{ chain, radius int }{{0, 1}, {1, 1}, {2, 2}, {1, 3}} {
		c := gen.DefaultSynthetic()
		c.Chain = cfg.chain
		c.Radius = cfg.radius
		w, err := gen.Synthetic(c)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, streamCase{fmt.Sprintf("synthetic_c%d_d%d", cfg.chain, cfg.radius), w.Graph, w.Keys})
	}
	for _, fl := range []struct {
		name  string
		build func(gen.FlavorConfig) (*gen.Workload, error)
	}{{"google", gen.Google}, {"dbpedia", gen.DBpedia}} {
		w, err := fl.build(gen.FlavorConfig{Seed: 1, Scale: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, streamCase{fl.name, w.Graph, w.Keys})
	}
	for _, s := range shapes() {
		g, set := s.build(t)
		cases = append(cases, streamCase{"shape-" + s.Name, g, set})
	}
	return cases
}

// TestCandidateStreamProperties is the pipeline's property test against
// the one reference that remains, the full sweep. On every workload
// the default stream is strictly (A, B)-ascending (so duplicate-free),
// a subset of the FullSweep stream, and complete: it contains every
// pair a brute-force chase over the full sweep identifies directly,
// and every pair some key identifies under that chase's final Eq —
// the joins drop only pairs no chasing sequence can ever step on.
func TestCandidateStreamProperties(t *testing.T) {
	for _, tc := range streamCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(tc.g, tc.set, Options{})
			if err != nil {
				t.Fatal(err)
			}
			got := slices.Collect(m.CandidateStream())
			full := sweep(t, m)
			for _, l := range [][]eqrel.Pair{got, full} {
				for i := 1; i < len(l); i++ {
					if eqrel.Compare(l[i-1], l[i]) >= 0 {
						t.Fatalf("stream not strictly ascending at %d: %v then %v", i, l[i-1], l[i])
					}
				}
			}
			inGot := make(map[eqrel.Pair]bool, len(got))
			for _, pr := range got {
				inGot[pr] = true
				if _, ok := slices.BinarySearchFunc(full, pr, eqrel.Compare); !ok {
					t.Fatalf("candidate %v not in the full sweep", pr)
				}
			}

			// Brute-force chase over the full sweep.
			eq := eqrel.New(tc.g.NumNodes())
			for changed := true; changed; {
				changed = false
				for _, pr := range full {
					if eq.Same(pr.A, pr.B) {
						continue
					}
					if ok, _, _ := m.Identified(graph.NodeID(pr.A), graph.NodeID(pr.B), eq); ok {
						if !inGot[pr] {
							t.Fatalf("chase step on %v, which the stream omits", pr)
						}
						eq.Union(pr.A, pr.B)
						changed = true
					}
				}
			}
			for _, pr := range full {
				if inGot[pr] {
					continue
				}
				if ok, by, _ := m.Identified(graph.NodeID(pr.A), graph.NodeID(pr.B), eq); ok {
					t.Fatalf("%v is identified by %s under the final Eq but the stream omits it", pr, by.Key.Name)
				}
			}
		})
	}
}

// TestPartnerStreamAgreesWithCandidates: the per-entity stream is the
// row view of the candidate set — PartnerStream(e) yields exactly the
// q with {e, q} in the candidate stream, ascending (the partner relation
// is symmetric: shared anchors and shared buckets look the same from
// both sides).
func TestPartnerStreamAgreesWithCandidates(t *testing.T) {
	for _, tc := range streamCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(tc.g, tc.set, Options{})
			if err != nil {
				t.Fatal(err)
			}
			ref := make(map[graph.NodeID][]graph.NodeID)
			for pr := range m.CandidateStream() {
				a, b := graph.NodeID(pr.A), graph.NodeID(pr.B)
				ref[a] = append(ref[a], b)
				ref[b] = append(ref[b], a)
			}
			for _, e32 := range m.keyedEntities() {
				e := graph.NodeID(e32)
				want := ref[e]
				slices.Sort(want)
				got := slices.Collect(m.PartnerStream(e))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("PartnerStream(%d) = %v, want %v", e, got, want)
				}
			}
		})
	}
}

// withStreamObs installs a fresh instrument bundle on the matcher for
// the duration of the test and returns it.
func withStreamObs(t *testing.T, m *Matcher) *Obs {
	t.Helper()
	prev := m.Opts.Obs
	t.Cleanup(func() { m.Opts.Obs = prev })
	m.Opts.Obs = NewObs(obs.NewRegistry())
	return m.Opts.Obs
}

// TestStreamEarlyTermination: a consumer that stops after the first
// candidate must stop generation mid-flight — exactly one candidate
// counted, and on the join stages strictly fewer posting pulls than
// draining the stream. Under FullSweep the sweep stage stops the same
// way, without enumerating the population's pairs (and never touches a
// posting list).
func TestStreamEarlyTermination(t *testing.T) {
	g, set := fixtures.MusicGraph(), fixtures.MusicKeys()
	for _, fullSweep := range []bool{false, true} {
		t.Run(fmt.Sprintf("FullSweep=%v", fullSweep), func(t *testing.T) {
			m, err := New(g, set, Options{FullSweep: fullSweep})
			if err != nil {
				t.Fatal(err)
			}
			ob := withStreamObs(t, m)
			for range m.CandidateStream() {
			}
			full := ob.PostingsScanned.Value()
			streamed := ob.CandidatesStreamed.Value()
			if streamed < 2 || (full < 2 && !fullSweep) {
				t.Fatalf("workload too small to observe termination: %d candidates, %d postings", streamed, full)
			}
			if fullSweep && full != 0 {
				t.Fatalf("full sweep scanned %d posting lists, want 0", full)
			}

			ob = withStreamObs(t, m)
			for range m.CandidateStream() {
				break
			}
			if got := ob.CandidatesStreamed.Value(); got != 1 {
				t.Errorf("after break: %d candidates streamed, want 1", got)
			}
			if got := ob.PostingsScanned.Value(); got > 0 && got >= full {
				t.Errorf("after break: %d postings scanned, full drain takes %d — the stream kept pulling", got, full)
			}
		})
	}
}

// TestConstantRejectStopsPostings: the greedy plan probes constant
// anchors first, so an entity missing the constant rejects after a
// single posting probe — the value-variable anchor's postings are
// never pulled.
func TestConstantRejectStopsPostings(t *testing.T) {
	g := graph.New()
	uk := g.AddValue("UK")
	zip := g.AddValue("2000")
	a := g.MustAddEntity("a", "street")
	b := g.MustAddEntity("b", "street")
	c := g.MustAddEntity("c", "street")
	for _, e := range []graph.NodeID{a, b} {
		g.MustAddTriple(e, "nation_of", uk)
		g.MustAddTriple(e, "zip_code", zip)
	}
	// c shares the zip but is not in the UK: the constant probe must
	// reject it before the zip posting list is pulled.
	g.MustAddTriple(c, "zip_code", zip)
	set, err := keys.ParseString("key Q for street {\n    x -zip_code-> code*\n    x -nation_of-> \"UK\"\n}")
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(g, set, Options{})
	if err != nil {
		t.Fatal(err)
	}

	ob := withStreamObs(t, m)
	if got := slices.Collect(m.PartnerStream(c)); got != nil {
		t.Fatalf("partners(c) = %v, want none", got)
	}
	if got := ob.PostingsScanned.Value(); got != 1 {
		t.Errorf("rejected entity scanned %d posting lists, want 1 (the constant probe alone)", got)
	}

	ob = withStreamObs(t, m)
	if got := slices.Collect(m.PartnerStream(a)); !reflect.DeepEqual(got, []graph.NodeID{b}) {
		t.Fatalf("partners(a) = %v, want [b]", got)
	}
	if got := ob.PostingsScanned.Value(); got != 2 {
		t.Errorf("accepted entity scanned %d posting lists, want 2 (constant probe + zip postings)", got)
	}

	// The pair survives the full pipeline.
	want := []eqrel.Pair{eqrel.MakePair(int32(a), int32(b))}
	if got := slices.Collect(m.CandidateStream()); !reflect.DeepEqual(got, want) {
		t.Fatalf("stream = %v, want %v", got, want)
	}
}

// TestCandidatesPerEntityIndependentOfGraphSize: what the join yields
// per keyed entity does not grow with the graph. Every gen.Synthetic
// type plants one duplicate pair per ten entities and, on the two
// recursive levels of three, three near-miss pairs per twenty — same
// identifying value, unrelated children; L is exactly those pairs, 0.2
// per keyed entity at every size. "Any value the two
// d-neighbors share" also paired every collision on the generator's
// 1 000 noise literals, which grow with the square of the population:
// 840, 7 597 and 96 665 candidates on these inputs.
func TestCandidatesPerEntityIndependentOfGraphSize(t *testing.T) {
	for _, tc := range []struct{ perType, want int }{{100, 240}, {400, 960}, {1600, 3840}} {
		c := gen.DefaultSynthetic()
		c.NearMissFraction = 0.3
		c.EntitiesPerType = tc.perType
		w, err := gen.Synthetic(c)
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(w.Graph, w.Keys, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		for range m.CandidateStream() {
			got++
		}
		if got != tc.want {
			t.Errorf("%d entities per type: |L| = %d over %d keyed entities, want %d", tc.perType, got, len(m.keyedEntities()), tc.want)
		}
	}
}

// ledgerWorkloads builds the two inputs of the repository benchmark at
// seed 1, as the root package's ledgerInputs does: a DBpedia- and a
// Google-flavoured graph, each with two populous recursive chains
// planted.
func ledgerWorkloads(t testing.TB) []streamCase {
	t.Helper()
	var cases []streamCase
	for _, in := range []struct {
		name    string
		flavor  func(gen.FlavorConfig) (*gen.Workload, error)
		scale   float64
		perType int
	}{{"dbpedia-chains", gen.DBpedia, 8, 1200}, {"google-chains", gen.Google, 16, 384}} {
		w, err := in.flavor(gen.FlavorConfig{Seed: 1, Scale: in.scale})
		if err != nil {
			t.Fatal(err)
		}
		err = gen.PlantChains(w, gen.SyntheticConfig{
			Seed: 14, TypeGroups: 2, EntitiesPerType: in.perType,
			DupFraction: 0.2, NearMissFraction: 0.3, Chain: 2, Radius: 2,
			Labels: 6000, NoiseEdgesPerEntity: 1,
		}, "c_")
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, streamCase{in.name, w.Graph, w.Keys})
	}
	return cases
}

// TestCandidatesEqualStream: the parallel split of L — CandidateRanges
// generated on the workers and concatenated in range order
// (Candidates) — is CandidateStream element for element, at p ∈ {1, 2,
// 3, 8}, under exact value equality and on the sweep rows (FullSweep,
// and a case-folding ValueEq), on every shape, 64 random join cases and
// both ledger inputs. CandidatesStreamed counts each pair once. Under
// the race detector the ledger inputs run the exact rows only.
func TestCandidatesEqualStream(t *testing.T) {
	var cases []streamCase
	for _, s := range shapes() {
		g, set := s.build(t)
		cases = append(cases, streamCase{"shape-" + s.Name, g, set})
	}
	for seed := int64(0); seed < 64; seed++ {
		gt, kt := randomJoinCase(seed)
		g, err := parseShapeGraph(gt)
		if err != nil {
			t.Fatal(err)
		}
		set, err := keys.ParseString(kt)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, streamCase{fmt.Sprintf("random-%d", seed), g, set})
	}
	ledgerAt := len(cases)
	cases = append(cases, ledgerWorkloads(t)...)
	for ci, tc := range cases {
		for _, mode := range []struct {
			name string
			opts Options
		}{{"exact", Options{}}, {"fullsweep", Options{FullSweep: true}}, {"valueeq", Options{ValueEq: strings.EqualFold}}} {
			if raceEnabled && ci >= ledgerAt && mode.name != "exact" {
				// ≈ 5 M pairs each, ten times slower under the
				// detector, on the same ranges as the exact rows.
				continue
			}
			m, err := New(tc.g, tc.set, mode.opts)
			if err != nil {
				t.Fatal(err)
			}
			// The sweep rows of the ledger inputs hold ≈ 5 M pairs, so
			// each split is compared against a fresh stream, not a
			// collected one.
			for _, p := range []int{1, 2, 3, 8} {
				ob := withStreamObs(t, m)
				got := m.Candidates(p)
				i := 0
				for pr := range m.CandidateStream() {
					if i == len(got) || got[i] != pr {
						t.Fatalf("%s %s p=%d: the split differs from the stream at %d of %d", tc.name, mode.name, p, i, len(got))
					}
					i++
				}
				if i != len(got) {
					t.Fatalf("%s %s p=%d: %d candidates, the stream %d", tc.name, mode.name, p, len(got), i)
				}
				if n := ob.CandidatesStreamed.Value(); n != 2*int64(i) {
					t.Fatalf("%s %s p=%d: %d candidates streamed by the split and the stream, want 2×%d", tc.name, mode.name, p, n, i)
				}
			}
		}
	}
}

// TestPairableKeepsL: candidateEntities' grouping pass drops only
// entities whose rows add nothing to L. rows over every keyed entity of
// the candidate types yields CandidateStream pair for pair and in order,
// under exact value equality and on the sweep rows (FullSweep, and a
// case-folding ValueEq), on every stream case, 64 random join cases and
// both ledger inputs. On the ledger inputs it also pins the rows
// probed, without the pass and with it. Where the pass keeps every
// entity (on the sweep rows, always) the two streams are one by
// construction, so only the kept lists are compared. A pass that keeps
// only the later entity of each shared value fails here, but not
// TestCandidatesEqualStream, whose two sides share the kept list.
func TestPairableKeepsL(t *testing.T) {
	cases := streamCases(t)
	for seed := int64(0); seed < 64; seed++ {
		gt, kt := randomJoinCase(seed)
		g, err := parseShapeGraph(gt)
		if err != nil {
			t.Fatal(err)
		}
		set, err := keys.ParseString(kt)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, streamCase{fmt.Sprintf("random-%d", seed), g, set})
	}
	cases = append(cases, ledgerWorkloads(t)...)
	probed := map[string][2]int{"dbpedia-chains": {12993, 4864}, "google-chains": {15543, 5136}}
	for _, tc := range cases {
		for _, mode := range []struct {
			name string
			opts Options
		}{{"exact", Options{}}, {"fullsweep", Options{FullSweep: true}}, {"valueeq", Options{ValueEq: strings.EqualFold}}} {
			m, err := New(tc.g, tc.set, mode.opts)
			if err != nil {
				t.Fatal(err)
			}
			all, kept := m.everyKeyedEntity(), m.candidateEntities()
			if want, ok := probed[tc.name]; ok && mode.name == "exact" {
				if got := [2]int{len(all), len(kept)}; got != want {
					t.Errorf("%s: rows probed %d without the grouping pass and %d with it, want %d and %d", tc.name, got[0], got[1], want[0], want[1])
				}
			}
			if slices.Equal(all, kept) {
				continue // rows over one list yields one stream
			}
			next, stop := iter.Pull(m.CandidateStream())
			i := 0
			for pr := range m.unfilteredStream() {
				if got, ok := next(); !ok || got != pr {
					stop()
					t.Fatalf("%s %s: the stream differs at %d from the rows of every keyed entity (%v, want %v)", tc.name, mode.name, i, got, pr)
				}
				i++
			}
			if got, ok := next(); ok {
				t.Fatalf("%s %s: the stream yields %v after the %d pairs of the rows of every keyed entity", tc.name, mode.name, got, i)
			}
			stop()
		}
	}
}
