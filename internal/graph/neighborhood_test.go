package graph

import (
	"fmt"
	"runtime"
	"testing"
)

// paddedStar builds pad unrelated entities first and then one fixed
// local structure — a hub entity with 12 attribute values, each shared
// with one other entity — so the structure's node IDs lie above the
// padding: a set that stores by highest ID instead of by size pays for
// the padding.
func paddedStar(tb testing.TB, pad int) (*Graph, NodeID) {
	tb.Helper()
	g := New()
	for i := 0; i < pad; i++ {
		e := g.MustAddEntity(fmt.Sprintf("pad%d", i), "pad")
		g.MustAddTriple(e, "label", g.AddValue(fmt.Sprintf("padv%d", i)))
	}
	hub := g.MustAddEntity("hub", "t")
	for i := 0; i < 12; i++ {
		v := g.AddValue(fmt.Sprintf("v%d", i))
		g.MustAddTriple(hub, "attr", v)
		g.MustAddTriple(g.MustAddEntity(fmt.Sprintf("peer%d", i), "t"), "attr", v)
	}
	return g, hub
}

const neighborhoodPad = 4096

// TestNeighborhoodBytesIndependentOfGraphSize: what a d-neighbor costs
// to build depends on the nodes it holds, not on how many the graph
// has.
func TestNeighborhoodBytesIndependentOfGraphSize(t *testing.T) {
	// The least any of the calls allocated: the runtime's own
	// allocations land between two readings now and then, and only add.
	bytesPer := func(scale, d int) (uint64, int) {
		g, hub := paddedStar(t, scale*neighborhoodPad)
		least, n := ^uint64(0), 0
		var before, after runtime.MemStats
		for i := 0; i < 64; i++ {
			runtime.ReadMemStats(&before)
			n = g.Neighborhood(hub, d).Len()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least, n
	}
	for d, want := range []int{0: 1, 1: 13, 2: 25} {
		small, n1 := bytesPer(1, d)
		large, n8 := bytesPer(8, d)
		t.Logf("d=%d: %d nodes, %d B per Neighborhood at 1×, %d B at 8×", d, n1, small, large)
		if n1 != want || n8 != want {
			t.Fatalf("d=%d: neighborhood holds %d nodes at 1× and %d at 8×, want %d", d, n1, n8, want)
		}
		if small != large {
			t.Fatalf("d=%d: Neighborhood allocates %d B on the 1× graph and %d B on the 8× graph", d, small, large)
		}
	}
}

var sinkSet *NodeSet

// BenchmarkNeighborhood builds the 2-neighbor of the same 25-node
// structure in a graph of 8k and of 64k other nodes.
func BenchmarkNeighborhood(b *testing.B) {
	for _, scale := range []int{1, 8} {
		g, hub := paddedStar(b, scale*neighborhoodPad)
		b.Run(fmt.Sprintf("%dx", scale), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkSet = g.Neighborhood(hub, 2)
			}
		})
	}
}
