package graph_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"testing"

	"graphkeys/internal/gen"
	"graphkeys/internal/graph"
)

// ledgerGraphs are the repository benchmark's two inputs at seed 1
// (benchmark/entrypoints.go, genWorkload): the DBpedia flavour at scale
// 8 with chains of 1 200 entities per type, and the Google flavour at
// scale 16 with chains of 384.
func ledgerGraphs(tb testing.TB) []ledgerGraph {
	tb.Helper()
	var out []ledgerGraph
	for _, in := range []struct {
		name    string
		flavor  func(gen.FlavorConfig) (*gen.Workload, error)
		scale   float64
		perType int
	}{
		{"dbpedia-chains", gen.DBpedia, 8, 1200},
		{"google-chains", gen.Google, 16, 384},
	} {
		w, err := in.flavor(gen.FlavorConfig{Seed: 1, Scale: in.scale})
		if err != nil {
			tb.Fatal(err)
		}
		if err := gen.PlantChains(w, gen.SyntheticConfig{
			Seed: 14, TypeGroups: 2, EntitiesPerType: in.perType,
			DupFraction: 0.2, NearMissFraction: 0.3, Chain: 2, Radius: 2,
			Labels: 6000, NoiseEdgesPerEntity: 1,
		}, "c_"); err != nil {
			tb.Fatal(err)
		}
		out = append(out, ledgerGraph{in.name, w.Graph})
	}
	return out
}

type ledgerGraph struct {
	name string
	g    *graph.Graph
}

// TestTextCodecMatchesReference is FuzzParseText's differential on the
// ledger's inputs: the writer renders the generated graph to the
// reference writer's bytes, and the loader reads those bytes into the
// reference parser's graph, down to node IDs, adjacency order and
// postings.
func TestTextCodecMatchesReference(t *testing.T) {
	for _, in := range ledgerGraphs(t) {
		var text, ref bytes.Buffer
		if err := in.g.WriteText(&text); err != nil {
			t.Fatal(err)
		}
		if err := graph.RefWriteText(in.g, &ref); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(text.Bytes(), ref.Bytes()) {
			t.Fatalf("%s: WriteText differs from the reference writer", in.name)
		}
		t.Logf("%s: %d triples, %d bytes, sha256 %x", in.name, in.g.NumTriples(), text.Len(), sha256.Sum256(text.Bytes()))
		g, err := graph.ParseText(bytes.NewReader(text.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		want, err := graph.RefParseText(bytes.NewReader(text.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if err := graph.SameGraph(g, want); err != nil {
			t.Fatalf("%s: ParseText and the reference parser differ: %v", in.name, err)
		}
	}
}

// TestParseTextAllocsPerNode pins the bulk load by allocation count:
// ParseText allocates each table once at its final size, so what is
// left per node is its name and the growth of the node records and the
// name directory, about 1.1 objects. Growing every table as it fills costs about 3.5.
func TestParseTextAllocsPerNode(t *testing.T) {
	for _, in := range ledgerGraphs(t) {
		var text bytes.Buffer
		if err := in.g.WriteText(&text); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := graph.ParseText(bytes.NewReader(text.Bytes())); err != nil {
				t.Fatal(err)
			}
		})
		perNode := allocs / float64(in.g.NumNodes())
		t.Logf("%s: %.0f objects for %d nodes, %.2f a node", in.name, allocs, in.g.NumNodes(), perNode)
		if perNode > 1.5 {
			t.Errorf("%s: ParseText allocates %.2f objects a node, want at most 1.5", in.name, perNode)
		}
	}
}

// BenchmarkTextCodec times the loader and the writer on the ledger's
// inputs.
func BenchmarkTextCodec(b *testing.B) {
	for _, in := range ledgerGraphs(b) {
		var text bytes.Buffer
		if err := in.g.WriteText(&text); err != nil {
			b.Fatal(err)
		}
		b.Run(in.name+"/parse", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(text.Len()))
			for range b.N {
				if _, err := graph.ParseText(bytes.NewReader(text.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(in.name+"/write", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(text.Len()))
			var out bytes.Buffer
			for range b.N {
				out.Reset()
				if err := in.g.WriteText(&out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// tables writes g in the table format.
func tables(tb testing.TB, g *graph.Graph) []byte {
	tb.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	g.WriteTables(bw)
	if err := bw.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadTablesAllocs pins the snapshot load by allocation count:
// every label is a substring of one heap string and every name of one
// string per name list, and the tables, the name directory among them,
// are made at their final sizes: the read allocates ≈ 50 objects on
// the ledger's inputs, the tables and the two interners' maps. One
// string per label would cost 33 000 more.
func TestReadTablesAllocs(t *testing.T) {
	for _, in := range ledgerGraphs(t) {
		b := tables(t, in.g)
		allocs := testing.AllocsPerRun(3, func() {
			if _, _, err := graph.ReadTables(b); err != nil {
				t.Fatal(err)
			}
		})
		limit := in.g.NumTypes() + in.g.NumPreds() + 64
		t.Logf("%s: %d bytes, %.0f objects (limit %d)", in.name, len(b), allocs, limit)
		if allocs > float64(limit) {
			t.Errorf("%s: ReadTables allocates %.0f objects, want at most NumTypes+NumPreds+64 = %d", in.name, allocs, limit)
		}
	}
}

// BenchmarkTables times the table reader and writer on the ledger's
// inputs; BenchmarkTextCodec is the text codec on the same graphs.
func BenchmarkTables(b *testing.B) {
	for _, in := range ledgerGraphs(b) {
		data := tables(b, in.g)
		b.Run(in.name+"/read", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for range b.N {
				if _, _, err := graph.ReadTables(data); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(in.name+"/write", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			var out bytes.Buffer
			for range b.N {
				out.Reset()
				bw := bufio.NewWriter(&out)
				in.g.WriteTables(bw)
				if err := bw.Flush(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
