package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// BenchmarkHubGraph times what a node's degree can make costly, on
// three star graphs: one subject with 100 000 value triples, one value
// with 100 000 subjects, and one (subject, value) pair joined by 1 000
// predicates. Per star it times ParseText, ReadTables, a one-op delta
// that adds or removes a triple at the hub (alternately, so the graph
// stays the star), and HasTriple on the star's triples in turn.
//
//	go test ./internal/graph -run '^$' -bench HubGraph -benchmem
func BenchmarkHubGraph(b *testing.B) {
	stars := []struct {
		name string
		n    int
		// line returns line i of the star's text; the delta flips the
		// triple (subj, pred, lit).
		line            func(i int) string
		subj, pred, lit string
	}{
		{"subject", 100_000, func(i int) string { return fmt.Sprintf("s:T\tp\t\"v%d\"", i) }, "s", "p", "new"},
		{"value", 100_000, func(i int) string { return fmt.Sprintf("s%d:T\tp\t\"v\"", i) }, "s0", "q", "v"},
		{"pair", 1_000, func(i int) string { return fmt.Sprintf("s:T\tp%d\t\"v\"", i) }, "s", "new", "v"},
	}
	for _, st := range stars {
		var sb strings.Builder
		for i := range st.n {
			sb.WriteString(st.line(i))
			sb.WriteByte('\n')
		}
		text := sb.String()
		g, err := ParseText(strings.NewReader(text))
		if err != nil {
			b.Fatal(err)
		}
		var tables bytes.Buffer
		bw := bufio.NewWriter(&tables)
		g.WriteTables(bw)
		if err := bw.Flush(); err != nil {
			b.Fatal(err)
		}
		b.Run(st.name+"/parse", func(b *testing.B) {
			for range b.N {
				if _, err := ParseText(strings.NewReader(text)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(st.name+"/tables", func(b *testing.B) {
			for range b.N {
				if _, _, err := ReadTables(tables.Bytes()); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(st.name+"/delta", func(b *testing.B) {
			g, _ := ParseText(strings.NewReader(text))
			flip := [2]*Delta{
				new(Delta).AddValueTriple(st.subj, st.pred, st.lit),
				new(Delta).RemoveValueTriple(st.subj, st.pred, st.lit),
			}
			for i := range b.N {
				if res, err := g.ApplyDelta(flip[i%2]); err != nil || res.Empty() {
					b.Fatalf("delta %d: %v, %+v", i, err, res)
				}
			}
		})
		b.Run(st.name+"/has-triple", func(b *testing.B) {
			ts := g.Triples()
			for i := range b.N {
				if t := ts[i%len(ts)]; !g.HasTriple(t.S, t.P, t.O) {
					b.Fatalf("triple %v missing", t)
				}
			}
		})
	}
}
